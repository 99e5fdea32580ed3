package core

import (
	"errors"
	"fmt"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/stats"
)

// WorkerRankings converts each session's pairwise answers on the given
// question into the worker's full ranking of the N versions (Copeland
// scoring over the recorded round-robin). Sessions missing comparisons
// are skipped. The result feeds rank.RankDistribution — the paper's
// Fig. 4 shape.
func WorkerRankings(outcome *Outcome, questionID string, n int) ([][]int, error) {
	if outcome == nil {
		return nil, errors.New("core: nil outcome")
	}
	if n < 2 {
		return nil, rank.ErrTooFewVersions
	}
	var rankings [][]int
	for _, sess := range outcome.Sessions {
		// Record this worker's pairwise outcomes.
		type pair struct{ i, j int }
		results := make(map[pair]rank.Outcome)
		for _, r := range sess.Responses {
			if r.QuestionID != questionID {
				continue
			}
			i, j, ok := aggregator.ParsePairPageID(r.PageID)
			if !ok || i >= n || j >= n {
				continue
			}
			switch r.Choice {
			case questionnaire.ChoiceLeft:
				results[pair{i, j}] = rank.OutcomeA
			case questionnaire.ChoiceRight:
				results[pair{i, j}] = rank.OutcomeB
			case questionnaire.ChoiceSame:
				results[pair{i, j}] = rank.OutcomeTie
			}
		}
		if len(results) < rank.PairCount(n) {
			continue // incomplete round-robin
		}
		cmp := func(a, b int) rank.Outcome {
			if out, ok := results[pair{a, b}]; ok {
				return out
			}
			out := results[pair{b, a}]
			switch out {
			case rank.OutcomeA:
				return rank.OutcomeB
			case rank.OutcomeB:
				return rank.OutcomeA
			default:
				return rank.OutcomeTie
			}
		}
		res, err := rank.FullRoundRobin(n, cmp)
		if err != nil {
			return nil, fmt.Errorf("core: ranking worker %s: %w", sess.WorkerID, err)
		}
		rankings = append(rankings, res.Order)
	}
	if len(rankings) == 0 {
		return nil, errors.New("core: no complete sessions to rank")
	}
	return rankings, nil
}

// PreferenceSignificance runs the paper's Fig. 7(c) analysis on a page
// tally: are "left preferred" and "right preferred" proportions (out of
// all respondents) significantly different?
func PreferenceSignificance(t questionnaire.Tally) (stats.TwoProportionResult, error) {
	total := t.Total()
	if total == 0 {
		return stats.TwoProportionResult{}, errors.New("core: empty tally")
	}
	return stats.TwoProportionTest(t.Left, total, t.Right, total)
}

// BehaviorSamples flattens the sessions' telemetry into the three series
// of the paper's Fig. 5: active-tab switches, created tabs, and time on
// task (minutes) per side-by-side comparison.
func BehaviorSamples(sessions []server.SessionUpload) (activeTabs, createdTabs, minutes []float64) {
	for _, sess := range sessions {
		for _, b := range sess.Behaviors {
			activeTabs = append(activeTabs, float64(b.ActiveTabSwitches))
			createdTabs = append(createdTabs, float64(b.CreatedTabs))
			minutes = append(minutes, float64(b.TimeOnTaskMillis)/60000.0)
		}
	}
	return activeTabs, createdTabs, minutes
}

// KeptSessions returns the sessions of workers retained by the outcome's
// quality-controlled results.
func KeptSessions(outcome *Outcome) []server.SessionUpload {
	if outcome == nil || outcome.Filtered == nil {
		return nil
	}
	kept := make(map[string]bool, len(outcome.Filtered.KeptWorkers))
	for _, id := range outcome.Filtered.KeptWorkers {
		kept[id] = true
	}
	var out []server.SessionUpload
	for _, s := range outcome.Sessions {
		if kept[s.WorkerID] {
			out = append(out, s)
		}
	}
	return out
}

// FilteredOutcome recomputes an Outcome restricted to kept sessions,
// producing the per-worker rankings for the quality-controlled variant of
// Fig. 4.
func (o *Outcome) FilteredSessionsOutcome() *Outcome {
	cp := *o
	cp.Sessions = KeptSessions(o)
	return &cp
}
