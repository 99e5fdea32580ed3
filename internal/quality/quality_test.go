package quality

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/questionnaire"
)

// goodSession builds a complete, well-behaved session answering `answers`
// across pages p0..pN with the given worker id.
func goodSession(workerID string, answers []questionnaire.Choice) WorkerSession {
	s := WorkerSession{WorkerID: workerID}
	for i, c := range answers {
		s.Responses = append(s.Responses, questionnaire.Response{
			TestID: "t", WorkerID: workerID, PageID: fmt.Sprintf("p%d", i),
			QuestionID: "q", Choice: c, DurationMillis: 20000,
		})
		s.Behaviors = append(s.Behaviors, crowd.Behavior{
			TimeOnTaskMillis: 20000, CreatedTabs: 1, ActiveTabSwitches: 3,
		})
	}
	s.Controls = []ControlOutcome{{PageID: "ctl", Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceSame}}
	return s
}

func choices(s string) []questionnaire.Choice {
	var out []questionnaire.Choice
	for _, c := range s {
		switch c {
		case 'L':
			out = append(out, questionnaire.ChoiceLeft)
		case 'R':
			out = append(out, questionnaire.ChoiceRight)
		case 'S':
			out = append(out, questionnaire.ChoiceSame)
		}
	}
	return out
}

func TestFilterKeepsGoodWorkers(t *testing.T) {
	var sessions []WorkerSession
	for i := 0; i < 10; i++ {
		sessions = append(sessions, goodSession(fmt.Sprintf("w%d", i), choices("LLRS")))
	}
	kept, dropped, verdicts, err := Filter(sessions, DefaultConfig(4))
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if len(kept) != 10 || len(dropped) != 0 {
		t.Fatalf("kept=%d dropped=%d", len(kept), len(dropped))
	}
	for _, v := range verdicts {
		if !v.Passed {
			t.Errorf("%s failed", v.WorkerID)
		}
		if len(v.Reasons) != 0 {
			t.Errorf("passing verdict has reasons: %v", v.Reasons)
		}
	}
}

func TestFilterNoSessions(t *testing.T) {
	if _, _, _, err := Filter(nil, DefaultConfig(1)); err != ErrNoSessions {
		t.Errorf("err = %v", err)
	}
}

func TestHardRuleIncomplete(t *testing.T) {
	sessions := []WorkerSession{goodSession("w0", choices("LL"))}
	_, dropped, verdicts, err := Filter(sessions, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 {
		t.Fatal("incomplete session should be dropped")
	}
	if !strings.Contains(verdicts[0].Reasons[0], "answered 2 of 4") {
		t.Errorf("reason = %v", verdicts[0].Reasons)
	}
}

func TestHardRuleIllegalChoice(t *testing.T) {
	s := goodSession("w0", choices("LLLL"))
	s.Responses[2].Choice = "banana"
	_, dropped, verdicts, err := Filter([]WorkerSession{s}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 {
		t.Fatal("illegal choice should drop the worker")
	}
	found := false
	for _, r := range verdicts[0].Reasons {
		if strings.Contains(r, "illegal answer") {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", verdicts[0].Reasons)
	}
}

func TestEngagementTooFast(t *testing.T) {
	s := goodSession("speedy", choices("LLLL"))
	for i := range s.Behaviors {
		s.Behaviors[i].TimeOnTaskMillis = 900
	}
	_, dropped, verdicts, err := Filter([]WorkerSession{s}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || !strings.Contains(verdicts[0].Reasons[0], "unengaged") {
		t.Errorf("verdicts = %+v", verdicts)
	}
}

func TestEngagementTooSlow(t *testing.T) {
	s := goodSession("sloth", choices("LLLL"))
	s.Behaviors[1].TimeOnTaskMillis = 500_000
	_, dropped, verdicts, err := Filter([]WorkerSession{s}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || !strings.Contains(verdicts[0].Reasons[0], "distracted") {
		t.Errorf("verdicts = %+v", verdicts)
	}
}

func TestControlFailure(t *testing.T) {
	s := goodSession("w0", choices("LLLL"))
	s.Controls = []ControlOutcome{
		{PageID: "ctl", Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceLeft},
	}
	_, dropped, verdicts, err := Filter([]WorkerSession{s}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || !strings.Contains(verdicts[0].Reasons[0], "control") {
		t.Errorf("verdicts = %+v", verdicts)
	}
	// Tolerating one failure keeps the worker.
	cfg := DefaultConfig(4)
	cfg.MaxControlFailures = 1
	kept, _, _, err := Filter([]WorkerSession{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 {
		t.Error("one tolerated control failure should keep the worker")
	}
}

// A control the session carries no outcome for counts as failed, in the
// oracle and in the incremental battery alike.
func TestMissingControlFails(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.RequiredControls = 2
	for _, tc := range []struct {
		controls int
		reason   string // "" when the worker is kept
	}{
		{0, "failed 2 control questions (allowed 0)"},
		{1, "failed 1 control questions (allowed 0)"},
		{2, ""},
	} {
		s := goodSession("w0", choices("LLLL"))
		s.Controls = nil
		for i := 0; i < tc.controls; i++ {
			s.Controls = append(s.Controls, ControlOutcome{PageID: fmt.Sprintf("ctl%d", i), Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceSame})
		}
		_, _, verdicts, err := Filter([]WorkerSession{s}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := Verdict{WorkerID: "w0", Passed: tc.reason == ""}
		if tc.reason != "" {
			want.Reasons = []string{tc.reason}
		}
		if !reflect.DeepEqual(verdicts[0], want) {
			t.Errorf("%d of 2 controls: oracle %+v, want %+v", tc.controls, verdicts[0], want)
		}
		if got := ExtractFeatures(s).Evaluate(cfg, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%d of 2 controls: incremental %+v, want %+v", tc.controls, got, want)
		}
	}
}

func TestMajorityDeviation(t *testing.T) {
	// Nine agreeing workers, one contrarian answering the opposite
	// everywhere.
	var sessions []WorkerSession
	for i := 0; i < 9; i++ {
		sessions = append(sessions, goodSession(fmt.Sprintf("w%d", i), choices("LLLL")))
	}
	sessions = append(sessions, goodSession("contrarian", choices("RRRR")))
	kept, dropped, verdicts, err := Filter(sessions, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 9 || len(dropped) != 1 {
		t.Fatalf("kept=%d dropped=%d", len(kept), len(dropped))
	}
	if dropped[0].WorkerID != "contrarian" {
		t.Errorf("dropped %s", dropped[0].WorkerID)
	}
	last := verdicts[len(verdicts)-1]
	if last.Passed || !strings.Contains(last.Reasons[0], "majority") {
		t.Errorf("verdict = %+v", last)
	}
}

func TestMajorityNeedsQuorumAndStrictness(t *testing.T) {
	// Only 3 workers: below the 5-peer quorum, so no majority check fires
	// even for a disagreeing worker.
	sessions := []WorkerSession{
		goodSession("a", choices("LLLL")),
		goodSession("b", choices("LLLL")),
		goodSession("c", choices("RRRR")),
	}
	kept, _, _, err := Filter(sessions, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Errorf("kept = %d, want 3 (quorum not met)", len(kept))
	}
	// A perfectly split vote is no ground truth either.
	sessions = nil
	for i := 0; i < 5; i++ {
		sessions = append(sessions, goodSession(fmt.Sprintf("l%d", i), choices("L")))
	}
	for i := 0; i < 5; i++ {
		sessions = append(sessions, goodSession(fmt.Sprintf("r%d", i), choices("R")))
	}
	cfg := DefaultConfig(1)
	kept, _, _, err = Filter(sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 10 {
		t.Errorf("kept = %d, want 10 (split vote is not a majority)", len(kept))
	}
}

func TestDisabledChecks(t *testing.T) {
	s := goodSession("w0", choices("LL"))
	for i := range s.Behaviors {
		s.Behaviors[i].TimeOnTaskMillis = 600
	}
	s.Controls = []ControlOutcome{{Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceLeft}}
	cfg := Config{MaxControlFailures: 5} // everything else off
	kept, _, _, err := Filter([]WorkerSession{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 {
		t.Error("with checks disabled the worker should pass")
	}
}

func TestMultipleReasonsAccumulate(t *testing.T) {
	s := goodSession("bad", choices("LL")) // incomplete
	for i := range s.Behaviors {
		s.Behaviors[i].TimeOnTaskMillis = 700 // unengaged
	}
	s.Controls = []ControlOutcome{{Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceRight}}
	_, _, verdicts, err := Filter([]WorkerSession{s}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts[0].Reasons) < 3 {
		t.Errorf("reasons = %v, want >= 3", verdicts[0].Reasons)
	}
}

// TestQualityControlCleansCrowd is the integration-level property behind
// Fig. 4(a) vs 4(b): filtering a mixed crowd removes mostly hasty workers
// and improves agreement with the diligent consensus.
func TestQualityControlCleansCrowd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pop, err := crowd.TrustedCrowd(120, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []WorkerSession
	byWorker := make(map[string]crowd.Archetype)
	for _, w := range pop.Workers {
		byWorker[w.ID] = w.Archetype
		s := WorkerSession{WorkerID: w.ID}
		// Simulate 6 comparisons where the "true" answer is Left (12pt on
		// the left vs 22pt on the right).
		for i := 0; i < 6; i++ {
			choice := w.CompareFontSize(12, 22, rng)
			s.Responses = append(s.Responses, questionnaire.Response{
				TestID: "t", WorkerID: w.ID, PageID: fmt.Sprintf("p%d", i),
				QuestionID: "q", Choice: choice, DurationMillis: 1,
			})
			s.Behaviors = append(s.Behaviors, w.BehaveOnce(rng))
		}
		// One identical-pair control.
		s.Controls = []ControlOutcome{{
			PageID:   "ctl",
			Expected: questionnaire.ChoiceSame,
			Got:      w.CompareFontSize(12, 12, rng),
		}}
		sessions = append(sessions, s)
	}
	kept, dropped, _, err := Filter(sessions, DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) == 0 {
		t.Fatal("a mixed crowd should lose some workers to QC")
	}
	// Dropped workers skew hasty.
	hastyDropped, hastyTotal := 0, 0
	for _, s := range sessions {
		if byWorker[s.WorkerID] == crowd.Hasty {
			hastyTotal++
		}
	}
	for _, s := range dropped {
		if byWorker[s.WorkerID] == crowd.Hasty {
			hastyDropped++
		}
	}
	if hastyTotal > 0 && float64(hastyDropped)/float64(hastyTotal) < 0.5 {
		t.Errorf("QC caught only %d/%d hasty workers", hastyDropped, hastyTotal)
	}
	// Agreement with the true answer improves after filtering.
	agreement := func(ss []WorkerSession) float64 {
		total, correct := 0, 0
		for _, s := range ss {
			for _, r := range s.Responses {
				total++
				if r.Choice == questionnaire.ChoiceLeft {
					correct++
				}
			}
		}
		return float64(correct) / float64(total)
	}
	before := agreement(sessions)
	after := agreement(kept)
	if after <= before {
		t.Errorf("QC should improve agreement: before=%.3f after=%.3f", before, after)
	}
}

// TestFilterNeverDropsPerfectWorkerProperty: a worker who answers every
// question with the (unanimous) majority, behaves within the engagement
// band, and passes every control is never dropped — for arbitrary cohort
// shapes.
func TestFilterNeverDropsPerfectWorkerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		peers := 5 + rng.Intn(20)
		questions := 1 + rng.Intn(8)
		var sessions []WorkerSession
		answers := make([]questionnaire.Choice, questions)
		for q := range answers {
			answers[q] = []questionnaire.Choice{
				questionnaire.ChoiceLeft, questionnaire.ChoiceRight, questionnaire.ChoiceSame,
			}[rng.Intn(3)]
		}
		mkSession := func(id string) WorkerSession {
			s := WorkerSession{WorkerID: id}
			for q := 0; q < questions; q++ {
				s.Responses = append(s.Responses, questionnaire.Response{
					TestID: "t", WorkerID: id, PageID: fmt.Sprintf("p%d", q),
					QuestionID: "q", Choice: answers[q],
					DurationMillis: 10_000 + rng.Intn(60_000),
				})
				s.Behaviors = append(s.Behaviors, crowd.Behavior{
					TimeOnTaskMillis:  10_000 + rng.Intn(60_000),
					CreatedTabs:       1,
					ActiveTabSwitches: 2,
				})
			}
			s.Controls = []ControlOutcome{{
				PageID: "ctl", Expected: questionnaire.ChoiceSame, Got: questionnaire.ChoiceSame,
			}}
			return s
		}
		for i := 0; i < peers; i++ {
			sessions = append(sessions, mkSession(fmt.Sprintf("w%d", i)))
		}
		kept, dropped, _, err := Filter(sessions, DefaultConfig(questions))
		if err != nil {
			t.Fatal(err)
		}
		if len(dropped) != 0 {
			t.Fatalf("trial %d: dropped %d perfect workers (peers=%d questions=%d)",
				trial, len(dropped), peers, questions)
		}
		if len(kept) != peers {
			t.Fatalf("trial %d: kept %d of %d", trial, len(kept), peers)
		}
	}
}
