package quality

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/questionnaire"
)

// filterIncremental runs the battery the way the server's accumulator does:
// features extracted per session, votes accumulated, majority from counts,
// verdicts from features. It must agree with Filter on everything.
func filterIncremental(sessions []WorkerSession, cfg Config) []Verdict {
	votes := NewVotes()
	feats := make([]Features, len(sessions))
	for i, s := range sessions {
		feats[i] = ExtractFeatures(s)
		votes.Add(feats[i].Responses)
	}
	majority := votes.Majority(cfg.MinPeersForMajority)
	verdicts := make([]Verdict, len(sessions))
	for i, f := range feats {
		verdicts[i] = f.Evaluate(cfg, majority)
	}
	return verdicts
}

// randomSession produces a deliberately messy session: duplicate page ids,
// occasional illegal choices, missing behaviors or controls, wild timings.
func randomSession(id string, rng *rand.Rand) WorkerSession {
	s := WorkerSession{WorkerID: id}
	pool := []questionnaire.Choice{
		questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame, "banana",
	}
	n := rng.Intn(8)
	for i := 0; i < n; i++ {
		pageID := fmt.Sprintf("p%d", rng.Intn(4)) // collisions are intentional
		s.Responses = append(s.Responses, questionnaire.Response{
			TestID: "t", WorkerID: id, PageID: pageID,
			QuestionID:     fmt.Sprintf("q%d", rng.Intn(2)),
			Choice:         pool[rng.Intn(len(pool))],
			DurationMillis: rng.Intn(200_000),
		})
	}
	if rng.Intn(4) > 0 { // sometimes no telemetry at all
		for i := 0; i < rng.Intn(6); i++ {
			s.Behaviors = append(s.Behaviors, crowd.Behavior{TimeOnTaskMillis: rng.Intn(200_000)})
		}
	}
	for i := 0; i < rng.Intn(3); i++ { // sometimes no control answers
		got := questionnaire.ChoiceSame
		if rng.Intn(2) == 0 {
			got = questionnaire.ChoiceLeft
		}
		s.Controls = append(s.Controls, ControlOutcome{
			PageID: fmt.Sprintf("ctl%d", i), Expected: questionnaire.ChoiceSame, Got: got,
		})
	}
	return s
}

// TestIncrementalMatchesFilterProperty: over random messy cohorts and
// random configs, the incremental battery produces exactly the verdicts
// (reasons, order, everything) the from-scratch Filter produces.
func TestIncrementalMatchesFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cfg := Config{
			RequiredResponses:      rng.Intn(6),
			RequiredControls:       rng.Intn(3),
			MinMillisPerComparison: []int{0, 3000}[rng.Intn(2)],
			MaxMillisPerComparison: []int{0, 150_000}[rng.Intn(2)],
			MaxControlFailures:     rng.Intn(2),
			MajorityDeviation:      []float64{0, 0.6}[rng.Intn(2)],
			MinPeersForMajority:    []int{0, 3, 5}[rng.Intn(3)],
		}
		var sessions []WorkerSession
		for i := 0; i < 1+rng.Intn(15); i++ {
			sessions = append(sessions, randomSession(fmt.Sprintf("w%d", i), rng))
		}
		_, _, want, err := Filter(sessions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := filterIncremental(sessions, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (cfg %+v):\nincremental %+v\noracle      %+v", trial, cfg, got, want)
		}
	}
}

// TestSplitBatteryMatchesFilter: the battery the way a fleet runs it — the
// session-local rules where the session is, the votes summed from two
// partitions that travelled as rows, the crowd check only on the workers it
// can still fail — keeps exactly the workers Filter keeps.
func TestSplitBatteryMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		cfg := Config{
			RequiredResponses:      rng.Intn(6),
			RequiredControls:       rng.Intn(3),
			MinMillisPerComparison: []int{0, 3000}[rng.Intn(2)],
			MaxMillisPerComparison: []int{0, 150_000}[rng.Intn(2)],
			MaxControlFailures:     rng.Intn(2),
			MajorityDeviation:      []float64{0, 0.6}[rng.Intn(2)],
			MinPeersForMajority:    []int{0, 3, 5}[rng.Intn(3)],
		}
		var sessions []WorkerSession
		parts := [2]*Votes{NewVotes(), NewVotes()}
		for i := 0; i < 1+rng.Intn(15); i++ {
			s := randomSession(fmt.Sprintf("w%d", i), rng)
			sessions = append(sessions, s)
			parts[rng.Intn(2)].Add(ExtractFeatures(s).Responses)
		}
		whole := NewVotes()
		for _, part := range parts {
			// The rows are what a fold document carries of the votes.
			back, rows := NewVotes(), 0
			var prev QuestionRef
			part.Rows(func(q QuestionRef, counts map[questionnaire.Choice]int) {
				if rows > 0 && prev.Compare(q) >= 0 {
					t.Fatalf("trial %d: row %+v after %+v", trial, q, prev)
				}
				prev, rows = q, rows+1
				back.SetRow(q, maps.Clone(counts))
			})
			if !reflect.DeepEqual(back, part) {
				t.Fatalf("trial %d: votes changed through their rows: %+v -> %+v", trial, part, back)
			}
			whole.Merge(back)
		}
		majority := whole.Majority(cfg.MinPeersForMajority)

		_, _, want, err := Filter(sessions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sessions {
			f := ExtractFeatures(s)
			passed := f.PassesLocal(cfg)
			if _, fails := Deviation(f.Responses, cfg, majority); fails {
				if !f.CrowdCanFail(cfg) {
					t.Fatalf("trial %d: the crowd check fails %s, whom CrowdCanFail calls settled", trial, s.WorkerID)
				}
				passed = false
			}
			if passed != want[i].Passed {
				t.Fatalf("trial %d (cfg %+v): split battery passes %s = %v, Filter says %+v", trial, cfg, s.WorkerID, passed, want[i])
			}
		}
	}
}

// TestVotesMajorityMatchesOracle: the count-based strict majority equals
// majorityAnswers for cohorts engineered around the quorum and strictness
// boundaries.
func TestVotesMajorityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var sessions []WorkerSession
		for i := 0; i < rng.Intn(12); i++ {
			sessions = append(sessions, randomSession(fmt.Sprintf("w%d", i), rng))
		}
		minPeers := []int{0, 1, 3, 5}[rng.Intn(4)]
		want := majorityAnswers(sessions, minPeers)

		votes := NewVotes()
		for _, s := range sessions {
			votes.Add(ExtractFeatures(s).Responses)
		}
		got := votes.Majority(minPeers)

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d majorities, oracle has %d", trial, len(got), len(want))
		}
		for k, w := range want {
			if got[QuestionRef{PageID: k.pageID, QuestionID: k.questionID}] != w {
				t.Fatalf("trial %d: majority mismatch on %+v", trial, k)
			}
		}
	}
}

// Edge cases for the battery, each run through both the oracle Filter and
// the incremental path.
func TestFilterEdgeCases(t *testing.T) {
	cfg := DefaultConfig(4)
	dupe := goodSession("dupe", choices("LLLL"))
	// Same page answered twice (a re-shown comparison): both answers count
	// for tallies and majority; the count check sees 4 answers either way.
	dupe.Responses[1].PageID = dupe.Responses[0].PageID

	noControls := goodSession("nocontrols", choices("LLLL"))
	noControls.Controls = nil // missing control answers: zero failures, passes

	tests := []struct {
		name     string
		sessions []WorkerSession
		cfg      Config
		wantKept []string
		wantErr  error
	}{
		{
			name:    "zero sessions",
			cfg:     cfg,
			wantErr: ErrNoSessions,
		},
		{
			name: "all workers dropped",
			sessions: []WorkerSession{
				goodSession("a", choices("L")), // incomplete
				goodSession("b", choices("RR")),
			},
			cfg:      cfg,
			wantKept: []string{},
		},
		{
			name:     "duplicate page responses",
			sessions: []WorkerSession{dupe},
			cfg:      cfg,
			wantKept: []string{"dupe"},
		},
		{
			name:     "missing control answers",
			sessions: []WorkerSession{noControls},
			cfg:      cfg,
			wantKept: []string{"nocontrols"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			kept, dropped, verdicts, err := Filter(tt.sessions, tt.cfg)
			if err != tt.wantErr {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			var keptIDs []string
			for _, s := range kept {
				keptIDs = append(keptIDs, s.WorkerID)
			}
			if len(keptIDs) != len(tt.wantKept) {
				t.Fatalf("kept %v, want %v (dropped %d)", keptIDs, tt.wantKept, len(dropped))
			}
			for i := range keptIDs {
				if keptIDs[i] != tt.wantKept[i] {
					t.Fatalf("kept %v, want %v", keptIDs, tt.wantKept)
				}
			}
			if got := filterIncremental(tt.sessions, tt.cfg); !reflect.DeepEqual(got, verdicts) {
				t.Errorf("incremental verdicts %+v\noracle %+v", got, verdicts)
			}
		})
	}
}

// ExtractFeatures must be insensitive to everything evaluate ignores and
// preserve everything it reads.
func TestExtractFeatures(t *testing.T) {
	s := goodSession("w0", choices("LRS"))
	s.Behaviors[1].TimeOnTaskMillis = 50_000
	s.Controls = append(s.Controls, ControlOutcome{
		PageID: "ctl2", Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceLeft,
	})
	f := ExtractFeatures(s)
	if f.WorkerID != "w0" || len(f.Responses) != 3 {
		t.Fatalf("features = %+v", f)
	}
	if !f.HasBehaviors || f.MaxMillis != 50_000 || f.MedianMillis != 20_000 {
		t.Errorf("engagement features = %+v", f)
	}
	if f.ControlFailures != 1 {
		t.Errorf("control failures = %d", f.ControlFailures)
	}
	if f.Responses[0] != (ResponseKey{PageID: "p0", QuestionID: "q", Choice: questionnaire.ChoiceLeft}) {
		t.Errorf("first response key = %+v", f.Responses[0])
	}

	empty := ExtractFeatures(WorkerSession{WorkerID: "e"})
	if empty.HasBehaviors || empty.Responses != nil || empty.ControlFailures != 0 {
		t.Errorf("empty session features = %+v", empty)
	}
}
