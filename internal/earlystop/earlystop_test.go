package earlystop

import (
	"math"
	"testing"

	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
)

func mustNew(t *testing.T, cfg Config) *State {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func vote(page, q string, c questionnaire.Choice) []Vote {
	return []Vote{{PageID: page, QuestionID: q, Choice: c}}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{Alpha: 0, Streams: 1},
		{Alpha: 1, Streams: 1},
		{Alpha: -0.1, Streams: 1},
		{Alpha: math.NaN(), Streams: 1},
		{Alpha: 0.05, Streams: 0},
		{Alpha: 0.05, Streams: -2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
	if _, err := New(Config{Alpha: 0.05, Streams: 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// Unanimous evidence on a single stream must cross the alpha=0.05
// boundary at exactly n=8: E_8 = 2^8/9 ≈ 28.4 >= 20, while E_7 = 16 < 20.
func TestUnanimousDecidesAtKnownN(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 1})
	for i := 1; i <= 7; i++ {
		if d := s.Fold(vote("p1", "q0", questionnaire.ChoiceLeft)); d != nil {
			t.Fatalf("decided prematurely at session %d: %+v", i, d)
		}
	}
	d := s.Fold(vote("p1", "q0", questionnaire.ChoiceLeft))
	if d == nil {
		t.Fatal("undecided after 8 unanimous votes")
	}
	if d.Winner != questionnaire.ChoiceLeft || d.NUsed != 8 || d.Sessions != 8 {
		t.Fatalf("decision = %+v", d)
	}
	if d.PageID != "p1" || d.QuestionID != "q0" || d.Streams != 1 {
		t.Fatalf("decision stream = %+v", d)
	}
	want := 9.0 / 256.0
	if math.Abs(d.PValueBound-want) > 1e-12 {
		t.Fatalf("p bound = %v, want %v", d.PValueBound, want)
	}
	if d.PValueBound > 0.05 {
		t.Fatalf("latched with p bound %v > alpha", d.PValueBound)
	}
}

func TestRightWinner(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 1})
	var d *Decision
	for i := 0; i < 8; i++ {
		d = s.Fold(vote("p1", "q0", questionnaire.ChoiceRight))
	}
	if d == nil || d.Winner != questionnaire.ChoiceRight {
		t.Fatalf("decision = %+v, want right winner", d)
	}
}

func TestSameVotesAbstain(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 1})
	for i := 0; i < 500; i++ {
		if d := s.Fold(vote("p1", "q0", questionnaire.ChoiceSame)); d != nil {
			t.Fatalf("ties produced a decision: %+v", d)
		}
	}
	if l, r := s.Tally(StreamKey{PageID: "p1", QuestionID: "q0"}); l != 0 || r != 0 {
		t.Fatalf("ties counted as decisive: %d/%d", l, r)
	}
	if p := s.PBound(); p != 1 {
		t.Fatalf("p bound with no decisive votes = %v, want 1", p)
	}
}

func TestBalancedVotesNeverDecide(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 1})
	for i := 0; i < 400; i++ {
		c := questionnaire.ChoiceLeft
		if i%2 == 1 {
			c = questionnaire.ChoiceRight
		}
		if d := s.Fold(vote("p1", "q0", c)); d != nil {
			t.Fatalf("balanced stream decided at session %d: %+v", i+1, d)
		}
	}
}

// Bonferroni: with a family of 4 streams the boundary rises to log(80),
// so unanimity needs n=10 (2^10/11 ≈ 93) instead of n=8.
func TestFamilyThresholdRises(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 4})
	var d *Decision
	n := 0
	for d == nil && n < 20 {
		n++
		d = s.Fold(vote("p1", "q0", questionnaire.ChoiceLeft))
	}
	if d == nil || n != 10 {
		t.Fatalf("decided at n=%d (%+v), want 10", n, d)
	}
	if d.Streams != 4 {
		t.Fatalf("decision streams = %d", d.Streams)
	}
	want := 4 * 11.0 / 1024.0
	if math.Abs(d.PValueBound-want) > 1e-12 {
		t.Fatalf("p bound = %v, want %v", d.PValueBound, want)
	}
}

func TestDecisionLatches(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 1})
	for i := 0; i < 8; i++ {
		s.Fold(vote("p1", "q0", questionnaire.ChoiceLeft))
	}
	first := s.Decision()
	if first == nil {
		t.Fatal("undecided")
	}
	// A flood of contrary evidence cannot un-decide or mutate the latch.
	for i := 0; i < 100; i++ {
		if d := s.Fold(vote("p1", "q0", questionnaire.ChoiceRight)); d == nil || *d != *first {
			t.Fatalf("latched decision changed: %+v -> %+v", first, d)
		}
	}
	if s.Sessions() != first.Sessions {
		t.Fatalf("sessions advanced past the latch: %d", s.Sessions())
	}
	// Decision() returns a copy.
	cp := s.Decision()
	cp.NUsed = -1
	if s.Decision().NUsed == -1 {
		t.Fatal("Decision() leaked internal state")
	}
}

func TestMultiStreamSessionsAndAccessors(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.05, Streams: 2})
	for i := 0; i < 5; i++ {
		s.Fold([]Vote{
			{PageID: "p1", QuestionID: "q0", Choice: questionnaire.ChoiceLeft},
			{PageID: "p1", QuestionID: "q1", Choice: questionnaire.ChoiceRight},
		})
	}
	keys := s.Streams()
	if len(keys) != 2 || keys[0] != (StreamKey{"p1", "q0"}) || keys[1] != (StreamKey{"p1", "q1"}) {
		t.Fatalf("streams = %+v", keys)
	}
	if l, r := s.Tally(keys[0]); l != 5 || r != 0 {
		t.Fatalf("q0 tally = %d/%d", l, r)
	}
	if l, r := s.Tally(keys[1]); l != 0 || r != 5 {
		t.Fatalf("q1 tally = %d/%d", l, r)
	}
	if s.Sessions() != 5 {
		t.Fatalf("sessions = %d", s.Sessions())
	}
	if l, r := s.Tally(StreamKey{"absent", "q9"}); l != 0 || r != 0 {
		t.Fatalf("absent stream tally = %d/%d", l, r)
	}
}

// The engine's p bound must agree with recomputing the e-value by hand.
func TestPBoundMatchesStats(t *testing.T) {
	s := mustNew(t, Config{Alpha: 0.01, Streams: 3})
	votes := []questionnaire.Choice{
		questionnaire.ChoiceLeft, questionnaire.ChoiceLeft, questionnaire.ChoiceRight,
		questionnaire.ChoiceLeft, questionnaire.ChoiceLeft, questionnaire.ChoiceLeft,
	}
	k, n := 0, 0
	maxLogE := 0.0
	for _, c := range votes {
		s.Fold(vote("p1", "q0", c))
		n++
		if c == questionnaire.ChoiceLeft {
			k++
		}
		logE, _ := stats.LogBetaMixtureE(k, n, 1)
		if logE > maxLogE {
			maxLogE = logE
		}
		want := stats.EValuePBound(maxLogE, 3)
		if got := s.PBound(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("after %d votes: PBound = %v, want %v", n, got, want)
		}
	}
}

// Within a session, vote order must not matter; across sessions, swapping
// sessions with equal vote multisets must not matter.
func TestFoldOrderInvariance(t *testing.T) {
	mk := func() *State { return mustNew(t, Config{Alpha: 0.05, Streams: 2}) }
	sessA := []Vote{
		{PageID: "p1", QuestionID: "q0", Choice: questionnaire.ChoiceLeft},
		{PageID: "p1", QuestionID: "q1", Choice: questionnaire.ChoiceLeft},
	}
	sessArev := []Vote{sessA[1], sessA[0]}
	sessB := []Vote{
		{PageID: "p1", QuestionID: "q0", Choice: questionnaire.ChoiceRight},
		{PageID: "p1", QuestionID: "q1", Choice: questionnaire.ChoiceLeft},
	}

	run := func(sessions [][]Vote) *Decision {
		s := mk()
		var d *Decision
		for _, votes := range sessions {
			d = s.Fold(votes)
		}
		return d
	}

	base := run([][]Vote{sessA, sessA, sessB, sessA, sessA, sessA, sessA, sessA, sessA, sessA, sessA})
	inner := run([][]Vote{sessArev, sessA, sessB, sessArev, sessA, sessArev, sessA, sessA, sessArev, sessA, sessA})
	if base == nil || inner == nil || *base != *inner {
		t.Fatalf("within-session order changed the outcome: %+v vs %+v", base, inner)
	}
	// Swap two equal-multiset sessions (positions 0 and 1).
	swapped := run([][]Vote{sessArev, sessA, sessB, sessA, sessA, sessA, sessA, sessA, sessA, sessA, sessA})
	if *base != *swapped {
		t.Fatalf("equal-count session swap changed the outcome: %+v vs %+v", base, swapped)
	}
}
