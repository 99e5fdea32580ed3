// Command kscope-load is Kaleidoscope's crowd soak harness: a
// deterministic, seeded load driver that spawns N simulated crowd workers
// and pushes each one through the real HTTP stack — test-info download,
// integrated-page fetches, local replay, answering, session upload — with
// optional fault injection (dropped connections, injected 5xx, profile
// delays) on every worker's transport.
//
// It reports throughput and per-endpoint latency percentiles from the
// server's own metrics registry, and exits non-zero if
//
//   - any worker's session fails to land,
//   - the server produced any status outside 200/201/409, or
//   - the incremental results engine diverges from the from-scratch
//     oracle (raw or quality-controlled) at the end of the soak.
//
// The last check is the point: the soak is a differential test of the
// incremental results engine under concurrent, fault-riddled traffic.
//
// -scenario overload runs the overload-resilience acceptance instead: the
// server gets a deliberately tiny admission limit and a fault-injectable
// store, a read stampede must shed with 429 + Retry-After, a mid-run disk
// outage must trip the store circuit breaker into degraded serving
// (cached reads marked X-Kscope-Degraded: 1), and after the disk heals the
// run must still end with zero lost workers and oracle-equal results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/failover"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/obs"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

const testID = "load-test"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kscope-load:", err)
		os.Exit(1)
	}
}

type config struct {
	scenario     string
	workers      int
	seed         int64
	concurrency  int
	drop, fault  float64
	delayScale   float64
	retries      int
	resultsEvery int
	trusted      bool
	batch        int
	minRate      float64
	tests        int
	perTest      int
	dedupFloor   int64
	maxP99       float64
	budget       int
	alpha        float64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kscope-load", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.scenario, "scenario", "soak", "load scenario: soak (steady crowd), overload (saturate admission control and force the store breaker open), throughput (batched uploads, sessions/sec report), failover (kill the replicated primary mid-soak, promote the warm standby, prove zero acked loss), multinode (sharded fleet behind the consistent-hash router: kill one shard's primary mid-soak, prove zero acked loss and oracle-equal merged results), campaign (multi-tenant lifecycle churn with worker abandonment, dedup accounting, and per-tenant oracles), or earlystop (adaptive sequential stopping: decided tests conclude early, the null tenant never does, realized cost beats fixed-n under a shared budget)")
	fs.IntVar(&cfg.workers, "workers", 25, "number of simulated crowd workers")
	fs.Int64Var(&cfg.seed, "seed", 1, "base seed; every worker stream derives from it")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "simultaneously running workers")
	fs.Float64Var(&cfg.drop, "drop", 0.1, "chaos: probability a request dies at the transport")
	fs.Float64Var(&cfg.fault, "fault", 0.1, "chaos: probability a request gets an injected 503")
	fs.Float64Var(&cfg.delayScale, "delay-scale", 0, "chaos: 4G profile delay multiplier (0 = no delay)")
	fs.IntVar(&cfg.retries, "retries", 12, "per-worker client retry budget")
	fs.IntVar(&cfg.resultsEvery, "results-every", 5, "poll the results endpoints every N finished workers (0 = off)")
	fs.BoolVar(&cfg.trusted, "trusted", false, "use the trusted crowd mix instead of the open one")
	fs.IntVar(&cfg.batch, "batch", 100, "throughput scenario: sessions per batched upload")
	fs.Float64Var(&cfg.minRate, "min-rate", 0, "throughput scenario: fail under this sessions/sec floor (0 = report only)")
	fs.IntVar(&cfg.tests, "tests", 8, "campaign scenario: number of tenant tests churned through their lifecycle")
	fs.IntVar(&cfg.perTest, "per-test", 4, "campaign scenario: acked sessions each tenant must land")
	fs.Int64Var(&cfg.dedupFloor, "dedup-floor", 4096, "campaign scenario: fail if cross-tenant CAS dedup saves fewer bytes than this (0 = report only)")
	fs.Float64Var(&cfg.maxP99, "max-p99", 1000, "campaign scenario: fail if any serving endpoint's p99 exceeds this many milliseconds (0 = report only)")
	fs.IntVar(&cfg.budget, "budget", 60, "earlystop scenario: shared paid-session budget, deliberately below the combined fixed-n cost")
	fs.Float64Var(&cfg.alpha, "alpha", 0.05, "earlystop scenario: family-wise false-stop probability the sequential engine certifies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch cfg.scenario {
	case "soak":
		return soak(cfg, out)
	case "overload":
		return overload(cfg, out)
	case "throughput":
		return throughput(cfg, out)
	case "failover":
		return failoverScenario(cfg, out)
	case "multinode":
		return multinode(cfg, out)
	case "campaign":
		return campaignScenario(cfg, out)
	case "earlystop":
		return earlystopScenario(cfg, out)
	default:
		return fmt.Errorf("unknown -scenario %q (want soak, overload, throughput, failover, multinode, campaign, or earlystop)", cfg.scenario)
	}
}

func soak(cfg config, out io.Writer) error {
	srv, reg, err := buildServer()
	if err != nil {
		return err
	}
	var statuses statusTable
	ts := httptest.NewServer(statuses.wrap(obs.Middleware(srv, nil, reg, server.RouteLabel)))
	defer ts.Close()

	rng := rand.New(rand.NewSource(cfg.seed))
	popFn := crowd.OpenCrowd
	if cfg.trusted {
		popFn = crowd.TrustedCrowd
	}
	pop, err := popFn(cfg.workers, rng)
	if err != nil {
		return err
	}

	chaosOn := cfg.drop > 0 || cfg.fault > 0 || cfg.delayScale > 0
	var chaosMu sync.Mutex
	var chaos []*netsim.ChaosTransport
	pollErrs := make(chan error, 1)
	var polls atomic.Int64

	fleet := &extension.Fleet{
		BaseURL:     ts.URL,
		Answer:      extension.AnswerFontSize(),
		Seed:        cfg.seed,
		Concurrency: cfg.concurrency,
		Policy:      failover.Policy{Retries: cfg.retries, Backoff: 2 * time.Millisecond},
		Registry:    reg,
	}
	if chaosOn {
		fleet.Transport = func(i int) http.RoundTripper {
			chaosCfg := netsim.ChaosConfig{DropRate: cfg.drop, FaultRate: cfg.fault}
			if cfg.delayScale > 0 {
				p := netsim.Profile4G
				chaosCfg.Delay = &p
				chaosCfg.DelayScale = cfg.delayScale
			}
			t, err := netsim.NewChaosTransport(http.DefaultTransport,
				chaosCfg, rand.New(rand.NewSource(cfg.seed+int64(i)+7919)))
			if err != nil {
				panic(err) // only reachable with a nil rng
			}
			chaosMu.Lock()
			chaos = append(chaos, t)
			chaosMu.Unlock()
			return t
		}
	}
	if cfg.resultsEvery > 0 {
		// Interleave results polls (through a clean transport — the polls
		// probe the server, not the chaos) with the upload stream.
		fleet.OnResult = func(done int, _ extension.WorkerResult) {
			if done%cfg.resultsEvery != 0 {
				return
			}
			polls.Add(1)
			for _, q := range []string{"", "?quality=1"} {
				resp, err := http.Get(ts.URL + "/api/tests/" + testID + "/results" + q)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("mid-soak results%s: status %d", q, resp.StatusCode)
					}
				}
				if err != nil {
					select {
					case pollErrs <- err:
					default:
					}
				}
			}
		}
	}

	report, err := fleet.Run(testID, pop)
	if err != nil {
		return err
	}
	select {
	case err := <-pollErrs:
		return err
	default:
	}

	fmt.Fprintf(out, "kscope-load: %d workers (seed %d, concurrency %d)", cfg.workers, cfg.seed, cfg.concurrency)
	if chaosOn {
		fmt.Fprintf(out, ", chaos drop=%.0f%% fault=%.0f%% delay-scale=%g", cfg.drop*100, cfg.fault*100, cfg.delayScale)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "sessions: %d completed, %d failed, %d client retries, %d results polls\n",
		report.Completed, report.Failed, report.Retries, polls.Load())
	fmt.Fprintf(out, "throughput: %.1f sessions/s over %s\n",
		float64(report.Completed)/report.Elapsed.Seconds(), report.Elapsed.Round(time.Millisecond))
	if chaosOn {
		var agg netsim.ChaosStats
		chaosMu.Lock()
		for _, t := range chaos {
			s := t.Stats()
			agg.Drops += s.Drops
			agg.Faults += s.Faults
			agg.Delayed += s.Delayed
			agg.Passed += s.Passed
		}
		chaosMu.Unlock()
		fmt.Fprintf(out, "chaos: %d drops, %d injected faults, %d passed\n", agg.Drops, agg.Faults, agg.Passed)
	}
	printLatencies(out, reg)
	statuses.print(out)

	if report.Failed > 0 {
		return fmt.Errorf("%d of %d workers failed to complete: %v", report.Failed, cfg.workers, report.Errs)
	}
	if bad := statuses.unexpected(); len(bad) > 0 {
		return fmt.Errorf("server produced unexpected statuses: %v", bad)
	}
	return verifyOracle(out, ts.URL, srv)
}

// buildServer prepares an in-memory two-version font-size study and wires
// the core server with observability — the same fixture shape the §IV-A
// experiment uses.
func buildServer() (*server.Server, *obs.Registry, error) {
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := aggregator.New(db, blobs)
	if err != nil {
		return nil, nil, err
	}
	if _, err := agg.Prepare(loadTest(), loadSites(), nil); err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(db, blobs, server.WithObservability(reg))
	if err != nil {
		return nil, nil, err
	}
	return srv, reg, nil
}

// loadTest is the fixture study every scenario runs: a two-version
// font-size comparison.
func loadTest() *params.Test {
	return &params.Test{
		TestID:          testID,
		WebpageNum:      2,
		TestDescription: "kscope-load soak study",
		ParticipantNum:  10,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "wiki-12", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "wiki-22", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
}

// loadSites generates the two integrated pages the fixture study compares.
func loadSites() map[string]*webgen.Site {
	return map[string]*webgen.Site{
		"wiki-12": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 12}),
		"wiki-22": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 22}),
	}
}

// verifyOracle is the exit assertion: the incremental results the HTTP
// surface serves must deep-equal the from-scratch oracle's conclusions.
func verifyOracle(out io.Writer, baseURL string, srv *server.Server) error {
	for _, mode := range []struct {
		q     string
		useQC bool
	}{{"", false}, {"?quality=1", true}} {
		resp, err := http.Get(baseURL + "/api/tests/" + testID + "/results" + mode.q)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("results%s: status %d: %s", mode.q, resp.StatusCode, body)
		}
		var got server.Results
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding results%s: %w", mode.q, err)
		}
		want, err := srv.ConcludeScratch(testID, mode.useQC)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(&got, want) {
			return fmt.Errorf("ORACLE DIVERGENCE (quality=%v):\nincremental %+v\noracle      %+v", mode.useQC, &got, want)
		}
		if mode.useQC {
			fmt.Fprintf(out, "oracle: incremental == from-scratch (raw + quality); %d kept / %d dropped\n",
				got.Workers, got.DroppedWorkers)
		}
	}
	return nil
}

// printLatencies renders per-endpoint latency percentiles from the
// middleware's histograms.
func printLatencies(out io.Writer, reg *obs.Registry) {
	routes := []string{
		"GET /api/tests/{id}",
		"GET /api/tests/{id}/pages",
		"POST /api/tests/{id}/sessions",
		"POST /api/tests/{id}/sessions:batch",
		"GET /api/tests/{id}/results",
	}
	fmt.Fprintf(out, "%-32s %8s %9s %9s %9s\n", "route", "count", "p50", "p90", "p99")
	for _, route := range routes {
		h := reg.Histogram(obs.MetricRequestDuration, obs.DefLatencyBuckets, "route", route)
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(out, "%-32s %8d %8.1fms %8.1fms %8.1fms\n",
			route, h.Count(), h.Quantile(0.5)*1000, h.Quantile(0.9)*1000, h.Quantile(0.99)*1000)
	}
}

// statusTable counts responses by status code at the listener, after any
// chaos injection — these are statuses the server itself produced. It also
// audits the shed contract: every 429/503 must carry Retry-After.
type statusTable struct {
	mu              sync.Mutex
	counts          map[int]int64
	missingRetryAft int64
}

func (s *statusTable) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.mu.Lock()
		if s.counts == nil {
			s.counts = make(map[int]int64)
		}
		s.counts[rec.status]++
		if (rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable) &&
			rec.Header().Get("Retry-After") == "" {
			s.missingRetryAft++
		}
		s.mu.Unlock()
	})
}

// retryAfterViolations reports how many 429/503 responses lacked the
// Retry-After header the shed contract promises.
func (s *statusTable) retryAfterViolations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.missingRetryAft
}

func (s *statusTable) print(out io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	codes := make([]int, 0, len(s.counts))
	for c := range s.counts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(out, "server statuses:")
	for _, c := range codes {
		fmt.Fprintf(out, " %d×%d", c, s.counts[c])
	}
	fmt.Fprintln(out)
}

// unexpected returns any status the scenario considers a real server
// failure. 200/201 are success, 409 is the idempotent duplicate-upload
// answer a retried upload legitimately produces; scenarios running against
// an overload guard additionally allow its shed statuses via extra.
func (s *statusTable) unexpected(extra ...int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	allowed := map[int]bool{
		http.StatusOK:       true,
		http.StatusCreated:  true,
		http.StatusConflict: true,
	}
	for _, code := range extra {
		allowed[code] = true
	}
	var bad []string
	for code, n := range s.counts {
		if !allowed[code] {
			bad = append(bad, strconv.Itoa(code)+"×"+strconv.FormatInt(n, 10))
		}
	}
	sort.Strings(bad)
	return bad
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
