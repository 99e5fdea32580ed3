package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// startBed starts a topology for a study and closes it with the test.
func startBed(t *testing.T, top testbed.Topology, run testbed.Run) *testbed.Bed {
	t.Helper()
	bed, err := testbed.Start(top, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	return bed
}

// node is one memory node, the deployment every figure runs on.
func node(t *testing.T) *testbed.Bed { return startBed(t, testbed.Topology{}, testbed.Run{}) }

// fontStudy builds the paper's §IV-A font-size study at a reduced scale.
func fontStudy(t *testing.T, workers int, rng *rand.Rand) *Study {
	t.Helper()
	sizes := []int{10, 12, 22}
	test := &params.Test{
		TestID:          fmt.Sprintf("font-%d", rng.Int63()),
		WebpageNum:      len(sizes),
		TestDescription: "What is the best font size for online reading?",
		ParticipantNum:  workers,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
	}
	sites := make(map[string]*webgen.Site)
	for _, pt := range sizes {
		path := fmt.Sprintf("wiki-%dpt", pt)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:     path,
			WebPageLoad: params.PageLoadSpec{UniformMillis: 3000},
			WebMainFile: "index.html",
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: pt})
	}
	pool, err := crowd.TrustedCrowd(workers*2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Study{
		Params:      test,
		Sites:       sites,
		Answer:      extension.AnswerFontSize(),
		Pool:        pool,
		TrustedOnly: true,
		Controls: []aggregator.ControlPair{{
			Name:     "extreme",
			Left:     webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: 4}),
			Right:    webgen.WikiArticle(webgen.WikiConfig{Seed: 42, FontSizePt: 12}),
			Expected: questionnaire.ChoiceRight,
		}},
	}
}

func TestStudyValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	study := fontStudy(t, 5, rng)
	if err := study.Validate(); err != nil {
		t.Fatalf("valid study: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Study)
	}{
		{"no params", func(s *Study) { s.Params = nil }},
		{"bad params", func(s *Study) { s.Params = &params.Test{} }},
		{"no sites", func(s *Study) { s.Sites = nil }},
		{"no answer", func(s *Study) { s.Answer = nil }},
		{"no pool", func(s *Study) { s.Pool = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := fontStudy(t, 5, rng)
			tc.mutate(s)
			if err := s.Validate(); err == nil {
				t.Error("should fail")
			}
		})
	}
}

func TestRunStudyEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	study := fontStudy(t, 12, rng)
	outcome, err := RunStudy(node(t), study, rng)
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	if len(outcome.Sessions) != 12 {
		t.Fatalf("sessions = %d", len(outcome.Sessions))
	}
	if outcome.Raw == nil || outcome.Filtered == nil {
		t.Fatal("missing results")
	}
	if outcome.Raw.Workers != 12 {
		t.Errorf("raw workers = %d", outcome.Raw.Workers)
	}
	if !outcome.Filtered.Filtered {
		t.Error("filtered results not marked filtered")
	}
	if outcome.Filtered.Workers+outcome.Filtered.DroppedWorkers != 12 {
		t.Errorf("filtered accounting: %d + %d != 12",
			outcome.Filtered.Workers, outcome.Filtered.DroppedWorkers)
	}
	// Recruitment metadata present and plausible.
	if cost := outcome.Recruitment.TotalCostUSD; cost < 1.19 || cost > 1.21 {
		t.Errorf("cost = %v, want ~$1.20", cost)
	}
	// Every session covers all pages: C(3,2)=3 responses + behaviors for
	// 3 real + 2 control pages.
	for _, s := range outcome.Sessions {
		if len(s.Responses) != 3 {
			t.Errorf("worker %s responses = %d", s.WorkerID, len(s.Responses))
		}
		if len(s.Behaviors) != 5 {
			t.Errorf("worker %s behaviors = %d", s.WorkerID, len(s.Behaviors))
		}
		if len(s.Controls) != 2 {
			t.Errorf("worker %s controls = %d", s.WorkerID, len(s.Controls))
		}
	}
}

func TestRunStudyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bed := node(t)
	if _, err := RunStudy(bed, &Study{}, rng); err == nil {
		t.Error("invalid study should fail")
	}
	study := fontStudy(t, 5, rng)
	if _, err := RunStudy(bed, study, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := RunStudy(nil, study, rng); err == nil {
		t.Error("nil bed should fail")
	}
	if _, err := RunStudy(startBed(t, testbed.Topology{EarlyStopAlpha: 0.05}, testbed.Run{}), study, rng); err == nil {
		t.Error("a bed that may decide a test early should fail")
	}
}

func TestWorkerRankings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	study := fontStudy(t, 30, rng)
	outcome, err := RunStudy(node(t), study, rng)
	if err != nil {
		t.Fatal(err)
	}
	rankings, err := WorkerRankings(outcome, "q0", 3)
	if err != nil {
		t.Fatalf("WorkerRankings: %v", err)
	}
	if len(rankings) != 30 {
		t.Errorf("rankings = %d", len(rankings))
	}
	// Aggregate: 12pt (index 1) should beat 22pt (index 2) on Borda.
	scores, err := rank.BordaScores(rankings, 3)
	if err != nil {
		t.Fatal(err)
	}
	if scores[1] <= scores[2] {
		t.Errorf("12pt score %v should beat 22pt %v", scores[1], scores[2])
	}
	// Filtered variant also works.
	filteredOutcome := outcome.FilteredSessionsOutcome()
	if len(filteredOutcome.Sessions) != outcome.Filtered.Workers {
		t.Errorf("kept sessions = %d, want %d", len(filteredOutcome.Sessions), outcome.Filtered.Workers)
	}
	if outcome.Filtered.Workers >= 2 {
		if _, err := WorkerRankings(filteredOutcome, "q0", 3); err != nil {
			t.Errorf("filtered rankings: %v", err)
		}
	}
}

func TestWorkerRankingsErrors(t *testing.T) {
	if _, err := WorkerRankings(nil, "q0", 3); err == nil {
		t.Error("nil outcome should fail")
	}
	if _, err := WorkerRankings(&Outcome{}, "q0", 1); err == nil {
		t.Error("n<2 should fail")
	}
	if _, err := WorkerRankings(&Outcome{}, "q0", 3); err == nil {
		t.Error("no sessions should fail")
	}
}

// TestParsePairID: the page ids core reads its pair tallies by parse
// through aggregator.ParsePairPageID.
func TestParsePairID(t *testing.T) {
	tests := []struct {
		id   string
		i, j int
		ok   bool
	}{
		{"pair-0-1", 0, 1, true},
		{"pair-3-14", 3, 14, true},
		{"control-same", 0, 0, false},
		{"pair-x-1", 0, 0, false},
		{"pair-1", 0, 0, false},
	}
	for _, tt := range tests {
		i, j, ok := aggregator.ParsePairPageID(tt.id)
		if ok != tt.ok || (ok && (i != tt.i || j != tt.j)) {
			t.Errorf("ParsePairPageID(%q) = %d,%d,%v", tt.id, i, j, ok)
		}
	}
}

func TestPageTallyAndSignificance(t *testing.T) {
	tally := questionnaire.Tally{Left: 46, Right: 14, Same: 40}
	sig, err := PreferenceSignificance(tally)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's question-C numbers: strongly significant.
	if !sig.Significant(0.01) {
		t.Errorf("46 vs 14 should be significant at 99%%: %+v", sig)
	}
	if _, err := PreferenceSignificance(questionnaire.Tally{}); err == nil {
		t.Error("empty tally should fail")
	}
}

func TestBehaviorSamples(t *testing.T) {
	sessions := []server.SessionUpload{
		{Behaviors: []crowd.Behavior{
			{TimeOnTaskMillis: 60000, CreatedTabs: 2, ActiveTabSwitches: 4},
			{TimeOnTaskMillis: 30000, CreatedTabs: 1, ActiveTabSwitches: 2},
		}},
		{Behaviors: []crowd.Behavior{
			{TimeOnTaskMillis: 90000, CreatedTabs: 3, ActiveTabSwitches: 8},
		}},
	}
	tabs, created, minutes := BehaviorSamples(sessions)
	if len(tabs) != 3 || len(created) != 3 || len(minutes) != 3 {
		t.Fatalf("lens = %d/%d/%d", len(tabs), len(created), len(minutes))
	}
	if minutes[0] != 1.0 {
		t.Errorf("minutes[0] = %v", minutes[0])
	}
	if created[2] != 3 || tabs[2] != 8 {
		t.Errorf("samples = %v %v", created, tabs)
	}
}

// TestPersistentEngine: a study run over a directory store serves the same
// results again from a process reopened over it, as kscope-server opens one.
func TestPersistentEngine(t *testing.T) {
	bed := startBed(t, testbed.Topology{Store: testbed.Dir}, testbed.Run{})
	rng := rand.New(rand.NewSource(5))
	study := fontStudy(t, 3, rng)
	outcome, err := RunStudy(bed, study, rng)
	if err != nil {
		t.Fatalf("RunStudy persistent: %v", err)
	}
	if err := bed.Restart(0); err != nil {
		t.Fatal(err)
	}
	raw, filtered, err := bed.AuditTest(study.Params.TestID)
	if err != nil {
		t.Fatalf("results after reopen: %v", err)
	}
	if raw.Workers != 3 || !reflect.DeepEqual(raw, outcome.Raw) || !reflect.DeepEqual(filtered, outcome.Filtered) {
		t.Errorf("reopened results differ:\nraw %+v\nwas %+v\nfiltered %+v\nwas %+v", raw, outcome.Raw, filtered, outcome.Filtered)
	}
}

func TestKeptSessionsNil(t *testing.T) {
	if got := KeptSessions(nil); got != nil {
		t.Error("nil outcome should give nil")
	}
	if got := KeptSessions(&Outcome{}); got != nil {
		t.Error("missing filtered results should give nil")
	}
}

func TestRunSortedStudy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	study := fontStudy(t, 8, rng)
	study.Params.Sorted = true
	bed := node(t)
	outcome, err := RunStudy(bed, study, rng)
	if err != nil {
		t.Fatalf("RunStudy sorted: %v", err)
	}
	if len(outcome.Sessions) != 8 {
		t.Fatalf("sessions = %d", len(outcome.Sessions))
	}
	for _, s := range outcome.Sessions {
		if order, err := extension.SortedRanking(s.Responses, 3); err != nil || len(order) != 3 {
			t.Errorf("ranking = %v, %v", order, err)
		}
		// Binary insertion over 3 versions: at most C(3,2)=3 comparisons.
		if len(s.Responses) > 3 {
			t.Errorf("responses = %d, exceeds full round-robin", len(s.Responses))
		}
	}
	// A sorted participant answers only the pairs the sort visits, so the
	// served ?quality=1 keeps exactly the workers the paper's battery
	// without its completeness rule keeps; requiring every pair would drop
	// the whole crowd.
	stored, err := bed.Node(0).Serving().Server.Sessions(study.Params.TestID)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]quality.WorkerSession, len(stored))
	for i, u := range stored {
		sessions[i] = quality.WorkerSession{WorkerID: u.WorkerID, Responses: u.Responses, Behaviors: u.Behaviors, Controls: u.Controls}
	}
	kept, dropped, _, err := quality.Filter(sessions, quality.DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range kept {
		want = append(want, k.WorkerID)
	}
	got := outcome.Filtered
	if got.Workers != 7 || got.DroppedWorkers != 1 || !reflect.DeepEqual(got.KeptWorkers, want) {
		t.Errorf("served ?quality=1 kept %v (%d dropped), the battery keeps %v (%d dropped); want 7 kept",
			got.KeptWorkers, got.DroppedWorkers, want, len(dropped))
	}
}

func TestSortedStudyRequiresOneQuestion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	study := fontStudy(t, 5, rng)
	study.Params.Sorted = true
	study.Params.Questions = append(study.Params.Questions, "another question?")
	if err := study.Validate(); err == nil {
		t.Error("multi-question sorted study should fail validation")
	}
}

func TestRunStudyConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	study := fontStudy(t, 16, rng)
	study.Concurrency = 8
	outcome, err := RunStudy(node(t), study, rng)
	if err != nil {
		t.Fatalf("RunStudy concurrent: %v", err)
	}
	if len(outcome.Sessions) != 16 {
		t.Fatalf("sessions = %d", len(outcome.Sessions))
	}
	// Every slot filled with a distinct worker, in recruit order.
	seen := map[string]bool{}
	for i, s := range outcome.Sessions {
		if s.WorkerID == "" {
			t.Fatalf("slot %d empty", i)
		}
		if seen[s.WorkerID] {
			t.Fatalf("duplicate worker %s", s.WorkerID)
		}
		seen[s.WorkerID] = true
		if s.WorkerID != outcome.Recruitment.Recruits[i].Worker.ID {
			t.Errorf("slot %d order mismatch", i)
		}
		if len(s.Responses) != 3 {
			t.Errorf("worker %s responses = %d", s.WorkerID, len(s.Responses))
		}
	}
	if outcome.Raw.Workers != 16 {
		t.Errorf("raw workers = %d", outcome.Raw.Workers)
	}
}

func TestRunStudyConcurrentSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	study := fontStudy(t, 8, rng)
	study.Params.Sorted = true
	study.Concurrency = 4
	outcome, err := RunStudy(node(t), study, rng)
	if err != nil {
		t.Fatalf("RunStudy sorted concurrent: %v", err)
	}
	if len(outcome.Sessions) != 8 {
		t.Fatalf("sessions = %d", len(outcome.Sessions))
	}
	for i, s := range outcome.Sessions {
		if order, err := extension.SortedRanking(s.Responses, 3); err != nil || len(order) != 3 {
			t.Errorf("slot %d incomplete: %v, %v", i, order, err)
		}
	}
}

// TestStudyOnEveryTopology runs one plain and one sorted study on a memory
// node, a replicated pair, and three replicated shards behind the router
// with chaos on every link and the test's home shard killed mid-study. The
// deployment must not change what the paper measures: every Outcome equals
// the node's.
func TestStudyOnEveryTopology(t *testing.T) {
	chaos := testbed.Run{Seed: 3, Chaos: netsim.ChaosConfig{DropRate: 0.05, FaultRate: 0.05}, Retries: 12}
	for _, sorted := range []bool{false, true} {
		run := func(t *testing.T, top testbed.Topology, r testbed.Run, kill bool) *Outcome {
			rng := rand.New(rand.NewSource(21))
			study := fontStudy(t, 8, rng)
			study.Params.Sorted = sorted
			bed := startBed(t, top, r)
			var killed atomic.Bool
			if kill {
				// The kill fires from inside a participant's flow, on its
				// twelfth answer: between that worker's page fetches and
				// its upload, with earlier sessions already stored.
				victim, _ := bed.HomeVictim(study.Params.TestID)
				var answers atomic.Int64
				answer := study.Answer
				study.Answer = func(w *crowd.Worker, ctx *extension.PageContext, q string, rng *rand.Rand) (questionnaire.Choice, string) {
					if answers.Add(1) == 12 {
						if err := bed.KillAndPromote(victim); err != nil {
							t.Error(err)
						}
						killed.Store(true)
					}
					return answer(w, ctx, q, rng)
				}
			}
			outcome, err := RunStudy(bed, study, rng)
			if err != nil {
				t.Fatal(err)
			}
			if kill != killed.Load() {
				t.Fatal("the kill never fired")
			}
			return outcome
		}
		t.Run(fmt.Sprintf("sorted=%v", sorted), func(t *testing.T) {
			want := run(t, testbed.Topology{}, testbed.Run{}, false)
			for _, tc := range []struct {
				name string
				top  testbed.Topology
				run  testbed.Run
				kill bool
			}{
				{"pair", testbed.Topology{Replicated: true, Store: testbed.Dir}, testbed.Run{}, false},
				{"fleet", testbed.Topology{Shards: 3, Replicated: true, Store: testbed.Dir}, chaos, true},
			} {
				if got := run(t, tc.top, tc.run, tc.kill); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the outcome differs from the node's", tc.name)
				}
			}
		})
	}
}
