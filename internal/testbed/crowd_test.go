package testbed

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/server"
)

// TestCrowdIsTheSameAtEveryConcurrencyAndBatch: one open crowd on a memory
// node, run one participant at a time and eight at a time, each session
// uploaded alone or in gzip batches of four, gives the same sessions and the
// same served results. Each participant draws from its own stream, so
// neither scheduling nor the upload path changes what a participant does.
func TestCrowdIsTheSameAtEveryConcurrencyAndBatch(t *testing.T) {
	type run struct {
		attempts []Attempt
		raw, qc  *server.Results
	}
	var want *run
	for _, tc := range []struct{ concurrency, batch int }{{1, 0}, {8, 0}, {1, 4}, {8, 4}} {
		t.Run(fmt.Sprintf("concurrency %d, batch %d", tc.concurrency, tc.batch), func(t *testing.T) {
			bed := start(t, Topology{}, Run{Seed: 9}, "t")
			reports, err := bed.Drive([]Crowd{{Test: "t", Workers: 10, Concurrency: tc.concurrency, Batch: tc.batch}}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := reports[0]
			if rep.Failed != 0 || rep.Completed == 0 || rep.Completed+rep.Abandoned != 10 {
				t.Fatalf("report %+v, want all 10 landed or vanished", rep)
			}
			if batches := bed.Front().Registry.Counter("kscope_batch_requests_total").Value(); (batches > 0) != (tc.batch > 0) {
				t.Errorf("%d batch requests with batch size %d", batches, tc.batch)
			}
			got := &run{attempts: rep.Attempts}
			if got.raw, got.qc, err = bed.AuditTest("t"); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				return
			}
			for i, a := range got.attempts {
				if w := want.attempts[i]; a.Worker.ID != w.Worker.ID || !reflect.DeepEqual(a.Session, w.Session) {
					t.Errorf("participant %d (%s): session differs from one at a time, alone", i, a.Worker.ID)
				}
			}
			if !reflect.DeepEqual(got.raw, want.raw) || !reflect.DeepEqual(got.qc, want.qc) {
				t.Errorf("served results differ from one at a time, alone:\nraw %+v\nwas %+v\nqc %+v\nwas %+v", got.raw, want.raw, got.qc, want.qc)
			}
		})
	}
}

// TestCrowdRetriesThroughChaos: with a tenth of the requests on every
// worker link dropped and another tenth faulted, the whole crowd still
// lands on its retry budget, and the served results still equal the
// from-scratch oracle.
func TestCrowdRetriesThroughChaos(t *testing.T) {
	bed := start(t, Topology{}, Run{Seed: 3, Chaos: netsim.ChaosConfig{DropRate: 0.1, FaultRate: 0.1}, Retries: 10}, "t")
	reports, err := bed.Drive([]Crowd{{Test: "t", Workers: 8, Trusted: true, Concurrency: 4}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := reports[0]; r.Completed != 8 || r.Retries == 0 {
		t.Errorf("report %+v, want 8 completed after some retries", r)
	}
	if err := bed.Audit(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestCrowdReportTellsRingExhaustedFromRejection: a participant whose every
// node refused or never answered is failed and ring-exhausted; one the
// deployment definitively refused is failed only. The audit names both.
func TestCrowdReportTellsRingExhaustedFromRejection(t *testing.T) {
	bed := start(t, Topology{}, Run{Seed: 1, Retries: 1}, "t")
	reports, err := bed.Drive([]Crowd{{Test: "no-such-test", Workers: 2, Trusted: true}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := reports[0]; r.Failed != 2 || r.RingExhausted != 0 {
		t.Errorf("a test no shard holds: report %+v, want 2 failed, 0 ring-exhausted", r)
	}
	bed.net.Serve(strings.TrimPrefix(bed.URLs[0], "http://"), http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	reports, err = bed.Drive([]Crowd{{Test: "t", Workers: 3, Trusted: true, Concurrency: 2}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := reports[0]; r.Failed != 3 || r.RingExhausted != 3 {
		t.Errorf("a front door shedding everything: report %+v, want 3 failed, 3 ring-exhausted", r)
	}
	if err := bed.Audit(io.Discard); err == nil || !strings.Contains(err.Error(), "no-such-test: 2 of 2 workers failed to complete (0 ring-exhausted)") {
		t.Errorf("Audit = %v, want the definitive failures named", err)
	}
}

// TestDriveDrawsEveryCrowdBeforeAnyRuns: a crowd that cannot be drawn fails
// the drive before any other crowd sends a request, so no crowd outlives
// Drive unseen by the audit.
func TestDriveDrawsEveryCrowdBeforeAnyRuns(t *testing.T) {
	bed := start(t, Topology{}, Run{Seed: 1}, "t")
	if _, err := bed.Drive([]Crowd{{Test: "t", Workers: 4}, {Test: "t", Workers: 0}}, 0, nil); err == nil {
		t.Fatal("a crowd of no workers was driven")
	}
	var out strings.Builder
	bed.statuses.print(&out)
	if out.String() != "server statuses:\n" || len(bed.crowds) != 0 || len(bed.ackedWorkers("t")) != 0 {
		t.Errorf("the refused drive reached the deployment: %q, %d crowds, %d acks", out.String(), len(bed.crowds), len(bed.ackedWorkers("t")))
	}
}
