package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
)

// FoldState is a test's sufficient statistics for the quality-controlled
// conclusion: what GET /api/tests/{id}/fold serves, what the shard router
// merges, and what a node's own ?quality=1 results are concluded from.
//
// The battery's rules split in two. Completeness, legality, engagement and
// controls read one session each, so whoever holds the session applies them
// and only the workers that pass are listed. The crowd-wisdom check reads
// the whole crowd, but only through the per-question vote counts — which
// add across partitions — and it can only fail a worker with enough answers
// to compare (quality.Features.CrowdCanFail). A worker it cannot reach is
// settled where it is stored: the state carries its id, and its answers are
// already summed into Pages. A worker it can reach is also listed with its
// answers, and Conclude judges it once the votes are whole.
//
// Sessions hash to shards by worker, so states of one test hold disjoint
// workers and Merge is a sum; a single node is the merge of one state.
type FoldState struct {
	TestID string `json:"test_id"`
	// Sessions counts every stored session, passing or not.
	Sessions int `json:"sessions"`
	// Pages is the test's page spine; each tally counts the answers of the
	// settled workers only.
	Pages []PageResult   `json:"pages"`
	Votes *quality.Votes `json:"votes"`
	// Workers lists the workers that pass the session-local rules,
	// ascending by id — the order a single node stores and reports them in.
	Workers []string `json:"workers"`
	// Awaiting repeats, ascending by id, the ones among Workers the
	// crowd-wisdom check can still fail, with their answers.
	Awaiting []FoldWorker `json:"awaiting,omitempty"`
}

// FoldWorker is a locally passing worker awaiting the crowd-wisdom check.
type FoldWorker struct {
	ID      string                `json:"id"`
	Answers []quality.ResponseKey `json:"answers"`
}

// foldStateBuilder reduces a test's sessions, fed one worker at a time in
// document-id order, to its FoldState: the default battery's session-local
// rules applied, the settled workers' answers summed into the page spine.
type foldStateBuilder struct {
	cfg     quality.Config
	fs      *FoldState
	settled map[string]*questionnaire.Tally
}

func newFoldStateBuilder(testID string, entry *testEntry, votes *quality.Votes, sessions int) *foldStateBuilder {
	return &foldStateBuilder{
		cfg:     *defaultQC(entry),
		fs:      &FoldState{TestID: testID, Votes: votes, Workers: make([]string, 0, sessions)},
		settled: make(map[string]*questionnaire.Tally),
	}
}

func (b *foldStateBuilder) add(feats quality.Features) {
	b.fs.Sessions++
	if !feats.PassesLocal(b.cfg) {
		return
	}
	b.fs.Workers = append(b.fs.Workers, feats.WorkerID)
	if feats.CrowdCanFail(b.cfg) {
		b.fs.Awaiting = append(b.fs.Awaiting, FoldWorker{ID: feats.WorkerID, Answers: feats.Responses})
	} else {
		addTallies(b.settled, feats.Responses)
	}
}

func (b *foldStateBuilder) done(info *TestInfo) *FoldState {
	b.fs.Pages = pageSpine(info, b.settled)
	return b.fs
}

// crowdRules is the half of the default battery Conclude still has to
// apply. The required-answer count, the only per-test knob, belongs to the
// session-local half.
var crowdRules = quality.DefaultConfig(0)

// DecodeFoldState parses a fold document from another node and checks what
// Merge and Conclude rely on: counts are not negative, no more workers pass
// than sessions exist, worker ids ascend strictly, and the awaiting ones are
// among the passing.
func DecodeFoldState(data []byte) (*FoldState, error) {
	var fs FoldState
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("server: fold state: %w", err)
	}
	if fs.Votes == nil {
		fs.Votes = quality.NewVotes()
	}
	// An empty list is held the one way a node writes it, however the
	// document spelled it: Merge keeps whichever side's it was handed, and
	// two empty partitions must merge to the same bytes in either order.
	if len(fs.Awaiting) == 0 {
		fs.Awaiting = nil
	}
	if len(fs.Pages) == 0 {
		fs.Pages = nil
	}
	if fs.Workers == nil {
		fs.Workers = []string{}
	}
	if fs.Sessions < 0 || len(fs.Workers) > fs.Sessions {
		return nil, fmt.Errorf("server: fold state: %d workers pass of %d sessions", len(fs.Workers), fs.Sessions)
	}
	for _, p := range fs.Pages {
		if p.Tally.Left < 0 || p.Tally.Right < 0 || p.Tally.Same < 0 {
			return nil, fmt.Errorf("server: fold state: negative tally on page %q", p.PageID)
		}
	}
	for i := 1; i < len(fs.Workers); i++ {
		if fs.Workers[i-1] >= fs.Workers[i] {
			return nil, fmt.Errorf("server: fold state: worker %q repeated or out of order", fs.Workers[i])
		}
	}
	passing := fs.Workers
	for _, w := range fs.Awaiting {
		// Both lists ascend, so each awaiting id is found past the last.
		for len(passing) > 0 && passing[0] < w.ID {
			passing = passing[1:]
		}
		if len(passing) == 0 || passing[0] != w.ID {
			return nil, fmt.Errorf("server: fold state: awaiting worker %q repeated, out of order or not among the passing", w.ID)
		}
		passing = passing[1:]
	}
	return &fs, nil
}

// mergeAscending merges two lists that ascend strictly by id, refusing an id
// that is in both.
func mergeAscending[T any](a, b []T, id func(T) string) ([]T, error) {
	if len(b) == 0 {
		return a, nil
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch x, y := id(a[0]), id(b[0]); {
		case x < y:
			out, a = append(out, a[0]), a[1:]
		case x > y:
			out, b = append(out, b[0]), b[1:]
		default:
			return nil, fmt.Errorf("server: worker %q is in two partitions of its test", x)
		}
	}
	return append(append(out, a...), b...), nil
}

// Merge adds another partition of the same test's crowd. It refuses a state
// of a different test or page spine, and one that shares a worker with fs —
// two partitions are not supposed to — leaving fs as it was.
func (fs *FoldState) Merge(o *FoldState) error {
	if fs.TestID != o.TestID || len(fs.Pages) != len(o.Pages) {
		return errors.New("server: fold states of different tests")
	}
	for i, p := range o.Pages {
		p.Tally = fs.Pages[i].Tally
		if p != fs.Pages[i] {
			return fmt.Errorf("server: fold states disagree on page %d of test %q", i, fs.TestID)
		}
	}
	workers, err := mergeAscending(fs.Workers, o.Workers, func(id string) string { return id })
	if err != nil {
		return err
	}
	awaiting, err := mergeAscending(fs.Awaiting, o.Awaiting, func(w FoldWorker) string { return w.ID })
	if err != nil {
		return err
	}
	fs.Workers, fs.Awaiting = workers, awaiting
	fs.Sessions += o.Sessions
	for i, p := range o.Pages {
		fs.Pages[i].Tally.Left += p.Tally.Left
		fs.Pages[i].Tally.Right += p.Tally.Right
		fs.Pages[i].Tally.Same += p.Tally.Same
	}
	fs.Votes.Merge(o.Votes)
	return nil
}

// Conclude evaluates the state into the quality-controlled results — the
// payload ConcludeUploads produces over the sessions the state was folded
// from, byte for byte: the same kept workers in the same order, the same
// tallies, and Filtered left false when there was no session to filter.
// The results share the state's worker list when nobody awaits the crowd.
func (fs *FoldState) Conclude() *Results {
	res := &Results{TestID: fs.TestID, Pages: append([]PageResult(nil), fs.Pages...)}
	if fs.Sessions == 0 {
		return res
	}
	kept := fs.Workers
	if awaiting := fs.Awaiting; len(awaiting) > 0 {
		majority := fs.Votes.Majority(crowdRules.MinPeersForMajority)
		tallies := make(map[string]*questionnaire.Tally, len(res.Pages))
		for i := range res.Pages {
			tallies[res.Pages[i].PageID] = &res.Pages[i].Tally
		}
		kept = make([]string, 0, len(fs.Workers))
		for _, id := range fs.Workers {
			if len(awaiting) > 0 && awaiting[0].ID == id {
				answers := awaiting[0].Answers
				awaiting = awaiting[1:]
				if _, fails := quality.Deviation(answers, crowdRules, majority); fails {
					continue
				}
				for _, r := range answers {
					if t, ok := tallies[r.PageID]; ok {
						t.Add(r.Choice)
					}
				}
			}
			kept = append(kept, id)
		}
	}
	if len(kept) > 0 {
		res.KeptWorkers = kept
	}
	res.Filtered = true
	res.Workers = len(kept)
	res.DroppedWorkers = fs.Sessions - res.Workers
	return res
}
