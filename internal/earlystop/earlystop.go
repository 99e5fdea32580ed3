// Package earlystop is the adaptive sequential-significance engine: it
// watches the stream of crowd votes a test accumulates and declares the
// test *concluded* the moment a winner is statistically decided, so the
// remaining worker budget can be spent on tests that are still in doubt.
//
// # Statistical design
//
// Each (real page, question) pair is one evidence stream. A session
// contributes at most one vote per stream — its choice on that question:
// Left counts as a success, Right as a failure, Same (and missing
// answers) abstain. Under the no-difference null every decisive vote is a
// fair coin flip, so each stream carries a Bernoulli(1/2) sign test.
//
// Evidence is measured by the Beta(1,1)-mixture e-process
// (stats.LogBetaMixtureE): an always-valid nonnegative martingale with
// initial value 1 under the null. By Ville's inequality the probability
// that a null stream's running maximum ever reaches 1/alpha is at most
// alpha — at any sample size, under continuous monitoring. The engine
// monitors the *family* of streams and latches a decision the first time
// any stream's running-max log e-value crosses log(streams/alpha); the
// Bonferroni factor makes the family-wise false-stop rate at most alpha
// regardless of dependence between streams. This is why a mixture
// e-process was chosen over an O'Brien–Fleming alpha-spending schedule:
// spending bounds need a maximum sample size fixed in advance, while a
// crowd campaign's size is exactly what early stopping makes variable.
//
// The reported PValueBound is min(1, streams * exp(-maxLogE)) over the
// deciding stream's running maximum — an always-valid p-value, monotone
// non-increasing as evidence accumulates.
//
// # Determinism
//
// State is a pure fold over vote counts: two fold sequences that produce
// the same cumulative per-stream tallies at every step produce the same
// decision. Vote order within a session and the relative order of
// equal-count sessions never matter. (Order of *unequal* sessions can
// matter — sequential tests stop on the path, not the endpoint — which is
// precisely what Ville's inequality licenses.)
//
// The decision, once latched, is permanent: later votes, rebuilds, and
// state invalidation cannot un-decide a test.
package earlystop

import (
	"errors"
	"fmt"
	"sort"

	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
)

// Config parameterises one test's sequential engine.
type Config struct {
	// Alpha is the family-wise false-stop rate: the probability that a
	// test with no true preference on any question is ever declared
	// decided. Required, in (0, 1).
	Alpha float64
	// Streams is the size of the evidence family — the number of
	// (real page, question) pairs the test can collect votes on. The
	// decision boundary is log(Streams/Alpha). Required, >= 1; votes for
	// keys beyond the declared family are still folded but the threshold
	// never shrinks, so overstating Streams is safe (conservative) while
	// understating it is not.
	Streams int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return errors.New("earlystop: alpha must be in (0, 1)")
	}
	if c.Streams < 1 {
		return errors.New("earlystop: streams must be >= 1")
	}
	return nil
}

// StreamKey identifies one evidence stream: a question asked about a real
// comparison page.
type StreamKey struct {
	PageID     string
	QuestionID string
}

// Vote is one session's answer on one stream.
type Vote struct {
	PageID     string
	QuestionID string
	Choice     questionnaire.Choice
}

// Decision is the latched outcome of a decided test.
type Decision struct {
	// Winner is the side the crowd decided for on the deciding stream:
	// questionnaire.ChoiceLeft or questionnaire.ChoiceRight.
	Winner questionnaire.Choice `json:"winner"`
	// PageID and QuestionID name the deciding stream.
	PageID     string `json:"page_id"`
	QuestionID string `json:"question_id"`
	// PValueBound is the always-valid family-wise p-value bound at latch
	// time: min(1, streams * exp(-maxLogE)).
	PValueBound float64 `json:"p_value_bound"`
	// NUsed is the number of decisive votes the deciding stream had
	// consumed when the boundary was crossed.
	NUsed int `json:"n_used"`
	// Sessions is the number of sessions folded into the engine when the
	// decision latched.
	Sessions int `json:"sessions"`
	// Streams is the family size the Bonferroni correction used.
	Streams int `json:"streams"`
}

func (d Decision) String() string {
	return fmt.Sprintf("winner=%s page=%s question=%s p<=%.4g n=%d sessions=%d",
		d.Winner, d.PageID, d.QuestionID, d.PValueBound, d.NUsed, d.Sessions)
}

// stream is the running state of one evidence stream.
type stream struct {
	left, right int
	maxLogE     float64
}

func (st *stream) n() int { return st.left + st.right }

// State is the sequential engine for one test. It is not safe for
// concurrent use; callers serialise access (the server tracker holds its
// own mutex, mirroring the results accumulator).
type State struct {
	cfg       Config
	threshold float64
	streams   map[StreamKey]*stream
	sessions  int
	decision  *Decision
}

// New builds an engine. The config must validate.
func New(cfg Config) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	th, err := stats.SequentialThreshold(cfg.Alpha, cfg.Streams)
	if err != nil {
		return nil, err
	}
	return &State{
		cfg:       cfg,
		threshold: th,
		streams:   make(map[StreamKey]*stream),
	}, nil
}

// Fold incorporates one session's votes and returns the latched decision
// if the test is (now or previously) decided, else nil. Votes on the same
// stream within one session are all counted (the extension asks each
// question once, so in practice there is one per stream); Same votes
// abstain. Folding after a decision is a no-op that returns the existing
// decision — evidence accounting stops when spending stops.
func (s *State) Fold(votes []Vote) *Decision {
	if s.decision != nil {
		return s.decision
	}
	s.sessions++
	// Apply all counts first, then evaluate boundaries in sorted key
	// order: the outcome depends only on the cumulative tallies after the
	// session, never on the order votes appear inside it.
	touched := make(map[StreamKey]bool, len(votes))
	for _, v := range votes {
		var dl, dr int
		switch v.Choice {
		case questionnaire.ChoiceLeft:
			dl = 1
		case questionnaire.ChoiceRight:
			dr = 1
		default:
			continue
		}
		key := StreamKey{PageID: v.PageID, QuestionID: v.QuestionID}
		st, ok := s.streams[key]
		if !ok {
			st = &stream{}
			s.streams[key] = st
		}
		st.left += dl
		st.right += dr
		touched[key] = true
	}
	keys := make([]StreamKey, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PageID != keys[j].PageID {
			return keys[i].PageID < keys[j].PageID
		}
		return keys[i].QuestionID < keys[j].QuestionID
	})
	for _, key := range keys {
		st := s.streams[key]
		logE, err := stats.LogBetaMixtureE(st.left, st.n(), 1)
		if err != nil {
			continue // unreachable: counts are non-negative by construction
		}
		if logE > st.maxLogE {
			st.maxLogE = logE
		}
		if s.decision == nil && st.maxLogE >= s.threshold {
			winner := questionnaire.ChoiceLeft
			if st.right > st.left {
				winner = questionnaire.ChoiceRight
			}
			s.decision = &Decision{
				Winner:      winner,
				PageID:      key.PageID,
				QuestionID:  key.QuestionID,
				PValueBound: stats.EValuePBound(st.maxLogE, s.cfg.Streams),
				NUsed:       st.n(),
				Sessions:    s.sessions,
				Streams:     s.cfg.Streams,
			}
			// Keep updating running maxima for the remaining touched
			// streams this session? No: spending stops at the decision.
			break
		}
	}
	return s.decision
}

// Decision returns the latched decision, or nil while undecided. The
// returned value is a copy; mutating it does not affect the engine.
func (s *State) Decision() *Decision {
	if s.decision == nil {
		return nil
	}
	d := *s.decision
	return &d
}

// PBound returns the current best always-valid family-wise p-value bound
// across all streams (1 when no evidence has accumulated).
func (s *State) PBound() float64 {
	best := 1.0
	for _, st := range s.streams {
		if p := stats.EValuePBound(st.maxLogE, s.cfg.Streams); p < best {
			best = p
		}
	}
	return best
}

// Config returns the engine's configuration, defaults filled in.
func (s *State) Config() Config { return s.cfg }

// Sessions returns the number of sessions folded so far.
func (s *State) Sessions() int { return s.sessions }

// Tally returns the decisive-vote counts for one stream (zeros if the
// stream has no votes).
func (s *State) Tally(key StreamKey) (left, right int) {
	if st, ok := s.streams[key]; ok {
		return st.left, st.right
	}
	return 0, 0
}

// Streams returns the keys of every stream that has received at least one
// decisive vote, in sorted order.
func (s *State) Streams() []StreamKey {
	keys := make([]StreamKey, 0, len(s.streams))
	for k := range s.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PageID != keys[j].PageID {
			return keys[i].PageID < keys[j].PageID
		}
		return keys[i].QuestionID < keys[j].QuestionID
	})
	return keys
}
