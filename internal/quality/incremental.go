// Incremental quality control: the battery of quality.go, refactored into
// per-worker features and per-question vote counts that can be maintained
// O(1) at session-upload time and evaluated without revisiting raw
// sessions. Filter/evaluate above stay untouched as the from-scratch
// oracle; the equivalence (same verdicts, same reasons, in the same order)
// is asserted by the differential tests in this package and in
// internal/server.
package quality

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
)

// QuestionRef identifies one question instance across workers — the
// exported twin of questionKey, shared by Votes and Features.
type QuestionRef struct {
	PageID     string
	QuestionID string
}

// ResponseKey is the QC-relevant projection of one answer: where it was
// given and what it was. Comments, durations, and worker ids are dropped —
// nothing else in the battery reads them per response. The JSON form is what
// a shard ships per answer of a worker only the crowd can still judge, hence
// the one-letter keys.
type ResponseKey struct {
	PageID     string               `json:"p"`
	QuestionID string               `json:"q"`
	Choice     questionnaire.Choice `json:"c"`
}

// Ref returns the question instance this answer belongs to.
func (r ResponseKey) Ref() QuestionRef {
	return QuestionRef{PageID: r.PageID, QuestionID: r.QuestionID}
}

// Features is everything evaluate needs to judge one worker, extracted
// once when the session arrives. A Features value is immutable after
// ExtractFeatures.
type Features struct {
	WorkerID string
	// Responses keeps every answer (duplicates included) in upload order;
	// the count, legality, and majority checks all iterate it.
	Responses []ResponseKey
	// HasBehaviors distinguishes "no telemetry" (engagement not checked)
	// from "telemetry present".
	HasBehaviors bool
	// MedianMillis is the median per-comparison time over all behaviors.
	MedianMillis float64
	// MaxMillis is the longest single comparison.
	MaxMillis int
	// Controls counts the control outcomes the session carries, and
	// ControlFailures those answered wrong.
	Controls, ControlFailures int
}

// ExtractFeatures reduces a session to its battery features. The reduction
// is lossy exactly where evaluate is insensitive: it preserves every value
// evaluate reads and nothing else.
func ExtractFeatures(s WorkerSession) Features {
	f := Features{WorkerID: s.WorkerID}
	if len(s.Responses) > 0 {
		f.Responses = make([]ResponseKey, len(s.Responses))
		for i, r := range s.Responses {
			f.Responses[i] = ResponseKey{PageID: r.PageID, QuestionID: r.QuestionID, Choice: r.Choice}
		}
	}
	if len(s.Behaviors) > 0 {
		f.HasBehaviors = true
		times := make([]float64, len(s.Behaviors))
		for i, b := range s.Behaviors {
			times[i] = float64(b.TimeOnTaskMillis)
			if b.TimeOnTaskMillis > f.MaxMillis {
				f.MaxMillis = b.TimeOnTaskMillis
			}
		}
		f.MedianMillis = stats.Median(times)
	}
	f.Controls = len(s.Controls)
	for _, c := range s.Controls {
		if !c.Passed() {
			f.ControlFailures++
		}
	}
	return f
}

// Votes accumulates per-question answer counts across workers — the
// streaming form of majorityAnswers' vote map. Counting arbitrary Choice
// values (not just the three legal ones) matters: the oracle counts them
// too, and an illegal value can win a majority.
type Votes struct {
	counts map[QuestionRef]map[questionnaire.Choice]int
}

// NewVotes returns an empty vote accumulator.
func NewVotes() *Votes {
	return &Votes{counts: make(map[QuestionRef]map[questionnaire.Choice]int)}
}

// Add records one worker's answers (call once per session).
func (v *Votes) Add(responses []ResponseKey) {
	for _, r := range responses {
		k := r.Ref()
		m := v.counts[k]
		if m == nil {
			m = make(map[questionnaire.Choice]int)
			v.counts[k] = m
		}
		m[r.Choice]++
	}
}

// Merge adds another accumulator's counts: workers are disjoint across
// shards, so the crowd's votes are the sum of the partitions' votes.
func (v *Votes) Merge(o *Votes) {
	for k, m := range o.counts {
		dst := v.counts[k]
		if dst == nil {
			dst = make(map[questionnaire.Choice]int, len(m))
			v.counts[k] = dst
		}
		for choice, n := range m {
			dst[choice] += n
		}
	}
}

// Compare orders question instances by page, then by question id: the
// order Rows visits them in.
func (r QuestionRef) Compare(o QuestionRef) int {
	return cmp.Or(strings.Compare(r.PageID, o.PageID), strings.Compare(r.QuestionID, o.QuestionID))
}

// Rows calls row for every question with counts, in Compare order, so equal
// accumulators are visited alike. counts is the accumulator's own.
func (v *Votes) Rows(row func(q QuestionRef, counts map[questionnaire.Choice]int)) {
	refs := make([]QuestionRef, 0, len(v.counts))
	for q := range v.counts {
		refs = append(refs, q)
	}
	slices.SortFunc(refs, QuestionRef.Compare)
	for _, q := range refs {
		row(q, v.counts[q])
	}
}

// SetRow makes counts, which v keeps, question q's counts.
func (v *Votes) SetRow(q QuestionRef, counts map[questionnaire.Choice]int) {
	v.counts[q] = counts
}

// Majority computes the per-question pseudo-ground truth from the
// accumulated counts, mirroring majorityAnswers: questions need at least
// minPeers answers (default 5 when <= 0) and a strict majority. A strict
// majority winner is unique, so the result is independent of the order
// votes arrived in — which is what makes the incremental form equivalent
// to the oracle's slice-based MajorityVote.
func (v *Votes) Majority(minPeers int) map[QuestionRef]questionnaire.Choice {
	if minPeers <= 0 {
		minPeers = 5
	}
	out := make(map[QuestionRef]questionnaire.Choice)
	for k, m := range v.counts {
		total := 0
		for _, n := range m {
			total += n
		}
		if total < minPeers {
			continue
		}
		for choice, n := range m {
			if n*2 > total {
				out[k] = choice
				break
			}
		}
	}
	return out
}

// Evaluate runs the battery on extracted features, producing the same
// Verdict (including reason strings and their order) evaluate produces for
// the session the features came from.
func (f Features) Evaluate(cfg Config, majority map[QuestionRef]questionnaire.Choice) Verdict {
	v := Verdict{WorkerID: f.WorkerID, Passed: true}
	fail := func(format string, args ...any) {
		v.Passed = false
		v.Reasons = append(v.Reasons, fmt.Sprintf(format, args...))
	}
	f.local(cfg, fail)
	if rate, deviates := Deviation(f.Responses, cfg, majority); deviates {
		fail("deviates from majority on %.0f%% of answers (allowed %.0f%%)", rate*100, cfg.MajorityDeviation*100)
	}
	return v
}

// local runs the rules that read nothing but the worker's own session —
// completeness, legality, engagement, controls — and reports each failure
// to fail, in the battery's order.
func (f Features) local(cfg Config, fail func(format string, args ...any)) {
	// Hard rules: completeness and legality.
	if cfg.RequiredResponses > 0 && len(f.Responses) != cfg.RequiredResponses {
		fail("answered %d of %d questions", len(f.Responses), cfg.RequiredResponses)
	}
	for _, r := range f.Responses {
		if !r.Choice.Valid() {
			fail("illegal answer %q on page %s", r.Choice, r.PageID)
			break
		}
	}

	// Engagement.
	if f.HasBehaviors {
		if cfg.MinMillisPerComparison > 0 && f.MedianMillis < float64(cfg.MinMillisPerComparison) {
			fail("median comparison time %.0fms below %dms (unengaged)", f.MedianMillis, cfg.MinMillisPerComparison)
		}
		if cfg.MaxMillisPerComparison > 0 && f.MaxMillis > cfg.MaxMillisPerComparison {
			fail("comparison time %dms above %dms (distracted)", f.MaxMillis, cfg.MaxMillisPerComparison)
		}
	}

	// Control questions: a control left unanswered is a control failed.
	if failures := f.ControlFailures + max(cfg.RequiredControls-f.Controls, 0); failures > cfg.MaxControlFailures {
		fail("failed %d control questions (allowed %d)", failures, cfg.MaxControlFailures)
	}
}

// PassesLocal reports whether the worker passes every rule that reads only
// its own session. None of them looks at the crowd, so a shard holding one
// partition of it decides them for good.
func (f Features) PassesLocal(cfg Config) bool {
	ok := true
	f.local(cfg, func(string, ...any) { ok = false })
	return ok
}

// CrowdCanFail reports whether the crowd-wisdom check could still reject
// the worker whatever the crowd turns out to say: it needs
// minCheckedForMajority answers to compare, and the worker cannot have more
// comparable answers than answers. A worker it cannot reach is settled by
// PassesLocal alone.
func (f Features) CrowdCanFail(cfg Config) bool {
	return cfg.MajorityDeviation > 0 && len(f.Responses) >= minCheckedForMajority
}

// Deviation is the crowd-wisdom check: the share of a worker's answers, among
// those on questions with a majority, that disagree with it, and whether
// that share fails the worker.
func Deviation(answers []ResponseKey, cfg Config, majority map[QuestionRef]questionnaire.Choice) (rate float64, fails bool) {
	if cfg.MajorityDeviation <= 0 || len(majority) == 0 {
		return 0, false
	}
	checked, deviated := 0, 0
	for _, r := range answers {
		want, ok := majority[r.Ref()]
		if !ok {
			continue
		}
		checked++
		if r.Choice != want {
			deviated++
		}
	}
	if checked < minCheckedForMajority {
		return 0, false
	}
	rate = float64(deviated) / float64(checked)
	return rate, rate > cfg.MajorityDeviation
}
