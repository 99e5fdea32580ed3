package extension

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
)

func fleetPopulation(t *testing.T, n int, seed int64) *crowd.Population {
	t.Helper()
	pop, err := crowd.TrustedCrowd(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestFleetRunsWholeCrowd(t *testing.T) {
	ts, srv, _ := startServer(t)
	pop := fleetPopulation(t, 12, 31)

	var mu sync.Mutex
	var seen []int
	fleet := &Fleet{
		BaseURL:     ts.URL,
		Answer:      AnswerFontSize(),
		Seed:        7,
		Concurrency: 4,
		OnResult: func(done int, res WorkerResult) {
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
			if res.Err != nil {
				t.Errorf("worker %d: %v", res.Index, res.Err)
			}
		},
	}
	report, err := fleet.Run("ext-test", pop)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 12 || report.Failed != 0 {
		t.Fatalf("report = %+v", report)
	}
	if len(seen) != 12 {
		t.Errorf("OnResult called %d times, want 12", len(seen))
	}

	// Every session landed, and the incremental serving path agrees with
	// the from-scratch oracle over exactly this workload.
	for _, useQC := range []bool{false, true} {
		got, err := srv.ConcludeScratch("ext-test", useQC)
		if err != nil {
			t.Fatal(err)
		}
		if got.Filtered != useQC && useQC {
			t.Fatalf("quality results not filtered")
		}
		if !useQC && got.Workers != 12 {
			t.Fatalf("workers = %d, want 12", got.Workers)
		}
	}
}

// Same seed, same population -> byte-identical sessions regardless of
// scheduling: the per-worker RNG streams make fleet workloads reproducible.
func TestFleetDeterministicAcrossRuns(t *testing.T) {
	collect := func(concurrency int) map[string]*WorkerResult {
		ts, _, _ := startServer(t)
		pop := fleetPopulation(t, 8, 5)
		out := make(map[string]*WorkerResult)
		var mu sync.Mutex
		fleet := &Fleet{
			BaseURL:     ts.URL,
			Answer:      AnswerFontSize(),
			Seed:        99,
			Concurrency: concurrency,
			OnResult: func(_ int, res WorkerResult) {
				mu.Lock()
				r := res
				out[res.WorkerID] = &r
				mu.Unlock()
			},
		}
		if _, err := fleet.Run("ext-test", pop); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := collect(1)
	parallel := collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("worker counts differ: %d vs %d", len(serial), len(parallel))
	}
	for id, a := range serial {
		b := parallel[id]
		if b == nil || b.Session == nil || a.Session == nil {
			t.Fatalf("missing session for %s", id)
		}
		if !reflect.DeepEqual(a.Session.Responses, b.Session.Responses) {
			t.Errorf("worker %s: responses differ between concurrency 1 and 8", id)
		}
		if !reflect.DeepEqual(a.Session.Controls, b.Session.Controls) {
			t.Errorf("worker %s: controls differ between runs", id)
		}
	}
}

// TestFleetRetriesThroughChaos: per-worker chaos transports with a retry
// budget — the whole crowd still lands, and incremental results stay equal
// to the oracle after the fault-riddled soak.
func TestFleetRetriesThroughChaos(t *testing.T) {
	ts, srv, _ := startServer(t)
	pop := fleetPopulation(t, 8, 13)

	fleet := &Fleet{
		BaseURL:     ts.URL,
		Answer:      AnswerFontSize(),
		Seed:        3,
		Concurrency: 4,
		Policy:      failover.Policy{Retries: 10, Backoff: time.Millisecond},
		Transport: func(i int) http.RoundTripper {
			chaos, err := netsim.NewChaosTransport(http.DefaultTransport, netsim.ChaosConfig{
				DropRate: 0.1, FaultRate: 0.1,
			}, rand.New(rand.NewSource(1000+int64(i))))
			if err != nil {
				t.Fatal(err)
			}
			return chaos
		},
	}
	report, err := fleet.Run("ext-test", pop)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("failed workers under chaos: %+v", report.Errs)
	}
	if report.Retries == 0 {
		t.Error("chaos run should have retried at least once")
	}

	raw, err := srv.Conclude("ext-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := srv.ConcludeScratch("ext-test", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, oracle) || raw.Workers != 8 {
		t.Fatalf("post-chaos state: %+v vs %+v", raw, oracle)
	}
}

func TestFleetValidation(t *testing.T) {
	pop := fleetPopulation(t, 2, 1)
	if _, err := (&Fleet{Answer: AnswerFontSize()}).Run("t", pop); err == nil {
		t.Error("missing base URL should fail")
	}
	if _, err := (&Fleet{BaseURL: "http://x"}).Run("t", pop); err == nil {
		t.Error("missing answer func should fail")
	}
	if _, err := (&Fleet{BaseURL: "http://x", Answer: AnswerFontSize()}).Run("t", &crowd.Population{}); err == nil {
		t.Error("empty population should fail")
	}
}

// TestFleetCountsRingExhausted: the fleet report breaks deployment-wide
// unavailability out of the generic failure count.
func TestFleetCountsRingExhausted(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()
	fleet := &Fleet{
		BaseURL:     down.URL,
		Answer:      AnswerFontSize(),
		Seed:        1,
		Concurrency: 2,
		Policy:      failover.Policy{Retries: 1, Backoff: time.Millisecond, MaxRetryAfter: time.Millisecond},
	}
	pop := fleetPopulation(t, 3, 1)
	report, err := fleet.Run("t", pop)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 3 {
		t.Fatalf("report = %+v, want all 3 workers failed", report)
	}
	if report.RingExhausted != 3 {
		t.Errorf("RingExhausted = %d, want 3 (every failure was the whole ring refusing)", report.RingExhausted)
	}
}

// TestFleetRingExhaustedZeroOnRejection: workers failing on a definitive
// server answer are Failed but not RingExhausted.
func TestFleetRingExhaustedZeroOnRejection(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	fleet := &Fleet{
		BaseURL:     ts.URL,
		Answer:      AnswerFontSize(),
		Seed:        1,
		Concurrency: 2,
		Policy:      failover.Policy{Retries: 1, Backoff: time.Millisecond},
	}
	report, err := fleet.Run("t", fleetPopulation(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 2 || report.RingExhausted != 0 {
		t.Errorf("report = %+v, want 2 failed, 0 ring-exhausted", report)
	}
}
