// Package quality implements Kaleidoscope's quality-control battery. The
// paper combines four mechanisms to keep crowd responses trustworthy:
//
//  1. Hard rules — every comparison question must be answered with a legal
//     choice before the next integrated webpage is shown.
//  2. Engagement — the time a worker spends per side-by-side comparison:
//     too short indicates an unengaged worker, too long a distracted one.
//  3. Control questions — integrated pages whose answer is known a priori
//     (two identical versions must be answered "Same"; two drastically
//     different versions have a known winner).
//  4. Crowd wisdom — the majority vote over all responses acts as
//     pseudo-ground truth; workers who deviate from it too often are
//     dropped.
//
// Filter applies the battery to worker sessions and reports per-worker
// verdicts with the reasons for any rejection.
package quality

import (
	"errors"
	"fmt"

	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
)

// ControlOutcome is one control-question result for a worker.
type ControlOutcome struct {
	PageID   string               `json:"page_id"`
	Expected questionnaire.Choice `json:"expected"`
	Got      questionnaire.Choice `json:"got"`
}

// Passed reports whether the worker answered the control correctly.
// Controls with a known "different" winner also accept the mirrored page
// order having been handled by the caller; here equality is literal.
func (c ControlOutcome) Passed() bool { return c.Expected == c.Got }

// WorkerSession is everything one worker produced during a test.
type WorkerSession struct {
	WorkerID string
	// Responses holds the real (non-control) answers.
	Responses []questionnaire.Response
	// Behaviors holds per-comparison telemetry, one entry per comparison
	// (control comparisons included).
	Behaviors []crowd.Behavior
	// Controls holds the control-question outcomes.
	Controls []ControlOutcome
}

// Config tunes the battery. Zero values disable the corresponding check
// except RequiredResponses (0 = don't check).
type Config struct {
	// RequiredResponses is the exact number of real answers a complete
	// session must contain (hard rule).
	RequiredResponses int
	// MinMillisPerComparison flags unengaged workers (median per-comparison
	// time below this).
	MinMillisPerComparison int
	// MaxMillisPerComparison flags distracted workers (any comparison
	// longer than this).
	MaxMillisPerComparison int
	// MaxControlFailures is the number of failed control questions
	// tolerated.
	MaxControlFailures int
	// MajorityDeviation drops workers whose answers disagree with the
	// per-question majority more than this fraction of the time (0
	// disables; sensible values 0.5-0.8).
	MajorityDeviation float64
	// MinPeersForMajority is how many peer answers a question needs before
	// the majority check applies to it (default 5).
	MinPeersForMajority int
}

// DefaultConfig mirrors the paper's battery: all answers required, 3 s to
// 2.5 min per comparison, zero tolerated control failures, and a 60%
// majority-deviation cutoff.
func DefaultConfig(requiredResponses int) Config {
	return Config{
		RequiredResponses:      requiredResponses,
		MinMillisPerComparison: 3_000,
		MaxMillisPerComparison: 150_000,
		MaxControlFailures:     0,
		MajorityDeviation:      0.6,
		MinPeersForMajority:    5,
	}
}

// Verdict is the battery's decision for one worker.
type Verdict struct {
	WorkerID string
	Passed   bool
	// Reasons lists each failed check (empty when passed).
	Reasons []string
}

// ErrNoSessions is returned when Filter receives nothing to evaluate.
var ErrNoSessions = errors.New("quality: no sessions")

// Filter applies the battery and partitions sessions into kept and
// dropped, returning per-worker verdicts alongside.
func Filter(sessions []WorkerSession, cfg Config) (kept, dropped []WorkerSession, verdicts []Verdict, err error) {
	if len(sessions) == 0 {
		return nil, nil, nil, ErrNoSessions
	}
	majority := majorityAnswers(sessions, cfg.MinPeersForMajority)
	for _, s := range sessions {
		v := evaluate(s, cfg, majority)
		verdicts = append(verdicts, v)
		if v.Passed {
			kept = append(kept, s)
		} else {
			dropped = append(dropped, s)
		}
	}
	return kept, dropped, verdicts, nil
}

// questionKey identifies one question instance across workers.
type questionKey struct {
	pageID     string
	questionID string
}

// majorityAnswers computes the per-question majority (pseudo-ground truth)
// over questions with enough peer answers.
func majorityAnswers(sessions []WorkerSession, minPeers int) map[questionKey]questionnaire.Choice {
	if minPeers <= 0 {
		minPeers = 5
	}
	votes := make(map[questionKey][]questionnaire.Choice)
	for _, s := range sessions {
		for _, r := range s.Responses {
			k := questionKey{pageID: r.PageID, questionID: r.QuestionID}
			votes[k] = append(votes[k], r.Choice)
		}
	}
	out := make(map[questionKey]questionnaire.Choice)
	for k, vs := range votes {
		if len(vs) < minPeers {
			continue
		}
		winner, count, err := stats.MajorityVote(vs)
		if err != nil {
			continue
		}
		// Require a strict majority; a fragmented vote is no ground truth.
		if count*2 <= len(vs) {
			continue
		}
		out[k] = winner
	}
	return out
}

// minCheckedForMajority is how many of a worker's answers must have a
// majority to compare with before the crowd-wisdom check applies — a
// single contested answer is legitimate disagreement, not spam (minority
// opinions on one-question tests must survive).
const minCheckedForMajority = 3

// evaluate runs every check on one session.
func evaluate(s WorkerSession, cfg Config, majority map[questionKey]questionnaire.Choice) Verdict {
	v := Verdict{WorkerID: s.WorkerID, Passed: true}
	fail := func(format string, args ...any) {
		v.Passed = false
		v.Reasons = append(v.Reasons, fmt.Sprintf(format, args...))
	}

	// Hard rules: completeness and legality.
	if cfg.RequiredResponses > 0 && len(s.Responses) != cfg.RequiredResponses {
		fail("answered %d of %d questions", len(s.Responses), cfg.RequiredResponses)
	}
	for _, r := range s.Responses {
		if !r.Choice.Valid() {
			fail("illegal answer %q on page %s", r.Choice, r.PageID)
			break
		}
	}

	// Engagement.
	if len(s.Behaviors) > 0 {
		times := make([]float64, len(s.Behaviors))
		maxTime := 0
		for i, b := range s.Behaviors {
			times[i] = float64(b.TimeOnTaskMillis)
			if b.TimeOnTaskMillis > maxTime {
				maxTime = b.TimeOnTaskMillis
			}
		}
		median := stats.Median(times)
		if cfg.MinMillisPerComparison > 0 && median < float64(cfg.MinMillisPerComparison) {
			fail("median comparison time %.0fms below %dms (unengaged)", median, cfg.MinMillisPerComparison)
		}
		if cfg.MaxMillisPerComparison > 0 && maxTime > cfg.MaxMillisPerComparison {
			fail("comparison time %dms above %dms (distracted)", maxTime, cfg.MaxMillisPerComparison)
		}
	}

	// Control questions.
	failures := 0
	for _, c := range s.Controls {
		if !c.Passed() {
			failures++
		}
	}
	if failures > cfg.MaxControlFailures {
		fail("failed %d control questions (allowed %d)", failures, cfg.MaxControlFailures)
	}

	// Crowd wisdom.
	if cfg.MajorityDeviation > 0 && len(majority) > 0 {
		checked, deviated := 0, 0
		for _, r := range s.Responses {
			want, ok := majority[questionKey{pageID: r.PageID, questionID: r.QuestionID}]
			if !ok {
				continue
			}
			checked++
			if r.Choice != want {
				deviated++
			}
		}
		if checked >= minCheckedForMajority {
			rate := float64(deviated) / float64(checked)
			if rate > cfg.MajorityDeviation {
				fail("deviates from majority on %.0f%% of answers (allowed %.0f%%)", rate*100, cfg.MajorityDeviation*100)
			}
		}
	}

	return v
}
