package extension_test

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// startBed brings up one memory node and prepares on it the 12pt-versus-
// 22pt font test "ext-test" that the crowd runs below take part in.
func startBed(t *testing.T, run testbed.Run) (*testbed.Bed, *aggregator.Prepared) {
	t.Helper()
	bed, err := testbed.Start(testbed.Topology{}, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	test := &params.Test{
		TestID: "ext-test", WebpageNum: 2, TestDescription: "extension flow test", ParticipantNum: 5,
		Questions: []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "wiki-12", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
			{WebPath: "wiki-22", WebPageLoad: params.PageLoadSpec{UniformMillis: 1000}, WebMainFile: "index.html"},
		},
	}
	prep, err := bed.Prepare(test, map[string]*webgen.Site{
		"wiki-12": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 12}),
		"wiki-22": webgen.WikiArticle(webgen.WikiConfig{Seed: 5, FontSizePt: 22}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bed, prep
}

func trustedWorkers(t *testing.T, n int, seed int64) []*crowd.Worker {
	t.Helper()
	pop, err := crowd.TrustedCrowd(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pop.Workers
}

// TestAbandonmentNeverCorruptsAccumulator is the mid-session churn property
// test: a crowd whose workers abandon at every rate — some vanishing before
// any page, some uploading partial sessions missing pages and controls —
// must leave the served results, raw and quality-controlled, exactly equal
// to the from-scratch oracle, under the race detector. Abandonment is a
// crowd behaviour, not an infrastructure failure: the bed tallies it apart
// from failures and loses nothing acked.
func TestAbandonmentNeverCorruptsAccumulator(t *testing.T) {
	bed, prep := startBed(t, testbed.Run{Seed: 17})
	test := prep.Test

	pop, err := crowd.NewPopulation(24, crowd.CampaignCrowdMix, false, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	// Pin a grid of abandonment rates over the drawn archetypes so every
	// churn shape shows up regardless of the mix: committed workers,
	// page-one quitters, and near-certain abandoners.
	for i, w := range pop.Workers {
		w.AbandonRate = float64(i%4) * 0.3
	}
	report := bed.RunCrowd(0, testbed.Crowd{Test: test.TestID, Concurrency: 6}, pop.Workers, nil, extension.AnswerFontSize(), nil)
	if report.Failed > 0 {
		t.Fatalf("%d failures — abandonment must not count as failure: %+v", report.Failed, report.Attempts)
	}
	partials := 0
	for _, a := range report.Attempts {
		if a.Session != nil && len(a.Session.Behaviors) < len(prep.Pages) {
			partials++
		}
	}
	// The seed is fixed: all three churn shapes must actually occur, or
	// the property below is vacuous.
	if report.Abandoned == 0 {
		t.Fatal("no worker vanished; the fixture no longer exercises abandonment")
	}
	if partials == 0 {
		t.Fatal("no partial session uploaded; the fixture no longer exercises mid-session abandonment")
	}
	if report.Completed == 0 {
		t.Fatal("no session completed")
	}
	if report.Completed+report.Abandoned != len(pop.Workers) {
		t.Errorf("completed %d + abandoned %d != %d workers", report.Completed, report.Abandoned, len(pop.Workers))
	}

	// The property: partial and absent sessions fold into the served
	// results exactly like the from-scratch oracle sees them, and every
	// acknowledged session is stored.
	raw, _, err := bed.AuditTest(test.TestID)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Workers != report.Completed {
		// Raw results count every stored session, partials included;
		// quality control is allowed to drop them.
		t.Errorf("raw results count %d sessions, the crowd completed %d", raw.Workers, report.Completed)
	}
}

// TestFleetRunsWholeCrowd: a trusted crowd run four at a time through the
// full flow lands every session, settles every participant once, and
// leaves served results equal to the from-scratch oracle.
func TestFleetRunsWholeCrowd(t *testing.T) {
	bed, _ := startBed(t, testbed.Run{Seed: 7})
	var settled atomic.Int64
	report := bed.RunCrowd(0, testbed.Crowd{Test: "ext-test", Concurrency: 4}, trustedWorkers(t, 12, 31), nil,
		extension.AnswerFontSize(), func() { settled.Add(1) })
	if report.Completed != 12 || report.Failed != 0 {
		t.Fatalf("report = %+v", report)
	}
	if n := settled.Load(); n != 12 {
		t.Errorf("%d attempts settled, want 12", n)
	}
	raw, qc, err := bed.AuditTest("ext-test")
	if err != nil {
		t.Fatal(err)
	}
	if raw.Workers != 12 || !qc.Filtered {
		t.Fatalf("raw results count %d workers, want 12; quality results filtered = %v", raw.Workers, qc.Filtered)
	}
}

// crowdAttempts runs the same trusted crowd on a fresh bed and returns its
// attempts and the served results, raw and quality-controlled.
func crowdAttempts(t *testing.T, cr testbed.Crowd) ([]testbed.Attempt, []*server.Results) {
	t.Helper()
	bed, _ := startBed(t, testbed.Run{Seed: 99})
	cr.Test = "ext-test"
	report := bed.RunCrowd(0, cr, trustedWorkers(t, 10, 21), nil, extension.AnswerFontSize(), nil)
	if report.Completed != 10 || report.Failed != 0 {
		t.Fatalf("crowd %+v: report = %+v", cr, report)
	}
	if batches := bed.Front().Registry.Counter("kscope_batch_requests_total").Value(); (batches > 0) != (cr.Batch > 0) {
		t.Errorf("crowd %+v: %d batch requests", cr, batches)
	}
	raw, qc, err := bed.AuditTest("ext-test")
	if err != nil {
		t.Fatal(err)
	}
	return report.Attempts, []*server.Results{raw, qc}
}

// sameSessions fails t unless every participant of got built the session
// it did in want.
func sameSessions(t *testing.T, what string, got, want []testbed.Attempt) {
	t.Helper()
	for i, a := range got {
		w := want[i]
		if a.Session == nil || w.Session == nil || a.Worker.ID != w.Worker.ID {
			t.Fatalf("%s: participant %d has no session", what, i)
		}
		if !reflect.DeepEqual(a.Session.Responses, w.Session.Responses) || !reflect.DeepEqual(a.Session.Controls, w.Session.Controls) {
			t.Errorf("%s: participant %d (%s) answered differently", what, i, a.Worker.ID)
		}
	}
}

// TestFleetDeterministicAcrossRuns: same seed, same crowd → the same
// sessions one at a time and eight at a time, because every participant
// draws from its own stream.
func TestFleetDeterministicAcrossRuns(t *testing.T) {
	serial, _ := crowdAttempts(t, testbed.Crowd{Concurrency: 1})
	parallel, _ := crowdAttempts(t, testbed.Crowd{Concurrency: 8})
	sameSessions(t, "concurrency 8 against 1", parallel, serial)
}

// TestFleetBatchModeMatchesSingles: shipping the sessions in gzip batches
// of four lands the same sessions and the same served results as uploading
// each alone.
func TestFleetBatchModeMatchesSingles(t *testing.T) {
	single, singleResults := crowdAttempts(t, testbed.Crowd{Concurrency: 3})
	batched, batchedResults := crowdAttempts(t, testbed.Crowd{Concurrency: 3, Batch: 4})
	sameSessions(t, "batched against single", batched, single)
	if !reflect.DeepEqual(batchedResults, singleResults) {
		t.Errorf("batched results differ:\n got %+v\nwant %+v", batchedResults, singleResults)
	}
}

// TestFleetCountsRingExhausted: participants whose front door never
// answers fail ring-exhausted, and the crowd report breaks that
// deployment-wide unavailability out of the generic failure count.
func TestFleetCountsRingExhausted(t *testing.T) {
	bed, _ := startBed(t, testbed.Run{Seed: 1, Retries: 1})
	bed.Close() // the front door stops answering; the crowd still runs
	report := bed.RunCrowd(0, testbed.Crowd{Test: "ext-test", Concurrency: 2}, trustedWorkers(t, 3, 1), nil, extension.AnswerFontSize(), nil)
	if report.Failed != 3 {
		t.Fatalf("report = %+v, want all 3 workers failed", report)
	}
	if report.RingExhausted != 3 {
		t.Errorf("RingExhausted = %d, want 3 (every failure was the whole ring refusing)", report.RingExhausted)
	}
}

// TestFleetRingExhaustedZeroOnRejection: participants failing on a
// definitive answer — a test the deployment does not hold — are failed but
// not ring-exhausted.
func TestFleetRingExhaustedZeroOnRejection(t *testing.T) {
	bed, _ := startBed(t, testbed.Run{Seed: 1, Retries: 1})
	report := bed.RunCrowd(0, testbed.Crowd{Test: "no-such-test", Concurrency: 2}, trustedWorkers(t, 2, 1), nil, extension.AnswerFontSize(), nil)
	if report.Failed != 2 || report.RingExhausted != 0 {
		t.Errorf("report = %+v, want 2 failed, 0 ring-exhausted", report)
	}
}
