package server

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"kaleidoscope/internal/jsonscan"
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
	TestID string
	// Sessions counts every stored session, passing or not.
	Sessions int
	// Pages is the test's page spine; each tally counts the answers of the
	// settled workers only.
	Pages []PageResult
	Votes *quality.Votes
	// Workers lists the workers that pass the session-local rules,
	// ascending by id — the order a single node stores and reports them in.
	Workers []string
	// Awaiting repeats, ascending by id, the ones among Workers the
	// crowd-wisdom check can still fail, with their answers.
	Awaiting []FoldWorker
}

// FoldWorker is a locally passing worker awaiting the crowd-wisdom check.
type FoldWorker struct {
	ID      string                `json:"id"`
	Answers []quality.ResponseKey `json:"answers"`
}

// foldDoc is a FoldState as its document lists it, the votes as rows in
// quality.QuestionRef order: what encoding/json reads and writes by
// reflection, and so the fold codec's authority.
type foldDoc struct {
	TestID   string       `json:"test_id"`
	Sessions int          `json:"sessions"`
	Pages    []PageResult `json:"pages"`
	Votes    []voteRow    `json:"votes"`
	Workers  []string     `json:"workers"`
	Awaiting []FoldWorker `json:"awaiting,omitempty"`
}

// voteRow is one question's counts in a fold document.
type voteRow struct {
	PageID     string                       `json:"page_id"`
	QuestionID string                       `json:"question_id"`
	Counts     map[questionnaire.Choice]int `json:"counts"`
}

func (r *voteRow) ref() quality.QuestionRef {
	return quality.QuestionRef{PageID: r.PageID, QuestionID: r.QuestionID}
}

// crowdRules is the half of the default battery Conclude still has to
// apply. The required-answer count, the only per-test knob, belongs to the
// session-local half.
var crowdRules = quality.DefaultConfig(0)

// DecodeFoldState parses a fold document from another node and checks what
// Merge and Conclude rely on: counts are not negative, no more workers pass
// than sessions exist, worker ids ascend strictly, the awaiting ones are
// among the passing, and vote rows ascend by question.
func DecodeFoldState(data []byte) (*FoldState, error) {
	var d foldDoc
	if err := d.scan(data); err != nil {
		return nil, fmt.Errorf("server: fold state: %w", err)
	}
	return d.state()
}

// state checks a decoded document and makes it a FoldState.
func (d *foldDoc) state() (*FoldState, error) {
	fs := &FoldState{TestID: d.TestID, Sessions: d.Sessions, Pages: d.Pages, Votes: quality.NewVotes(), Workers: d.Workers, Awaiting: d.Awaiting}
	for i, r := range d.Votes {
		q := r.ref()
		if i > 0 && d.Votes[i-1].ref().Compare(q) >= 0 {
			return nil, fmt.Errorf("server: fold state: vote row %+v repeated or out of order", q)
		}
		for _, n := range r.Counts {
			if n < 0 {
				return nil, fmt.Errorf("server: fold state: negative vote count on %+v", q)
			}
		}
		if r.Counts == nil {
			r.Counts = map[questionnaire.Choice]int{}
		}
		fs.Votes.SetRow(q, r.Counts)
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
	return fs, nil
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

// The fold codec, on the session codec's scanner: doc and append write
// json.Marshal's bytes of the foldDoc, and scan reads what append writes, by
// the session codec's rules: any key order, spacing and string escape; null
// for the five lists and maps append writes it for (pages, votes, workers,
// counts, answers); no unknown, respelled or repeated key. A vote row's
// counts are a map whose keys are choices, each at most once.
// FuzzFoldStateDecode (internal/shard) holds scan to json.Unmarshal and
// append to json.Marshal, TestFoldCodecCoversEveryField every struct under
// FoldState to the codec.

// doc lists fs as its document does.
func (fs *FoldState) doc() *foldDoc {
	d := &foldDoc{TestID: fs.TestID, Sessions: fs.Sessions, Pages: fs.Pages, Workers: fs.Workers, Awaiting: fs.Awaiting}
	if fs.Votes != nil {
		d.Votes = []voteRow{}
		fs.Votes.Rows(func(q quality.QuestionRef, counts map[questionnaire.Choice]int) {
			d.Votes = append(d.Votes, voteRow{PageID: q.PageID, QuestionID: q.QuestionID, Counts: counts})
		})
	}
	return d
}

// MarshalJSON writes fs's fold document.
func (fs *FoldState) MarshalJSON() ([]byte, error) {
	return fs.doc().append(nil), nil
}

// append appends the document: json.Marshal(d), byte for byte.
func (d *foldDoc) append(dst []byte) []byte {
	dst = jsonscan.AppendString(append(dst, `{"test_id":`...), d.TestID)
	dst = strconv.AppendInt(append(dst, `,"sessions":`...), int64(d.Sessions), 10)
	dst = appendArray(append(dst, `,"pages":`...), d.Pages, func(dst []byte, p *PageResult) []byte {
		dst = jsonscan.AppendString(append(dst, `{"page_id":`...), p.PageID)
		dst = jsonscan.AppendString(append(dst, `,"left":`...), p.LeftName)
		dst = jsonscan.AppendString(append(dst, `,"right":`...), p.RightName)
		dst = jsonscan.AppendString(append(dst, `,"kind":`...), string(p.Kind))
		dst = strconv.AppendInt(append(dst, `,"tally":{"Left":`...), int64(p.Tally.Left), 10)
		dst = strconv.AppendInt(append(dst, `,"Right":`...), int64(p.Tally.Right), 10)
		dst = strconv.AppendInt(append(dst, `,"Same":`...), int64(p.Tally.Same), 10)
		return append(dst, "}}"...)
	})
	dst = appendArray(append(dst, `,"votes":`...), d.Votes, func(dst []byte, r *voteRow) []byte {
		dst = jsonscan.AppendString(append(dst, `{"page_id":`...), r.PageID)
		dst = jsonscan.AppendString(append(dst, `,"question_id":`...), r.QuestionID)
		if dst = append(dst, `,"counts":`...); r.Counts == nil {
			return append(dst, "null}"...)
		}
		choices := make([]questionnaire.Choice, 0, len(r.Counts))
		for c := range r.Counts {
			choices = append(choices, c)
		}
		slices.Sort(choices) // as json.Marshal sorts a map's keys
		dst = append(dst, '{')
		for i, c := range choices {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(jsonscan.AppendString(dst, string(c)), ':'), int64(r.Counts[c]), 10)
		}
		return append(dst, "}}"...)
	})
	dst = appendArray(append(dst, `,"workers":`...), d.Workers, func(dst []byte, id *string) []byte {
		return jsonscan.AppendString(dst, *id)
	})
	if len(d.Awaiting) > 0 {
		dst = appendArray(append(dst, `,"awaiting":`...), d.Awaiting, func(dst []byte, w *FoldWorker) []byte {
			dst = jsonscan.AppendString(append(dst, `{"id":`...), w.ID)
			dst = appendArray(append(dst, `,"answers":`...), w.Answers, func(dst []byte, a *quality.ResponseKey) []byte {
				dst = jsonscan.AppendString(append(dst, `{"p":`...), a.PageID)
				dst = jsonscan.AppendString(append(dst, `,"q":`...), a.QuestionID)
				dst = jsonscan.AppendString(append(dst, `,"c":`...), string(a.Choice))
				return append(dst, '}')
			})
			return append(dst, '}')
		})
	}
	return append(dst, '}')
}

var (
	foldKeys   = []string{"test_id", "sessions", "pages", "votes", "workers", "awaiting"}
	pageKeys   = []string{"page_id", "left", "right", "kind", "tally"}
	tallyKeys  = []string{"Left", "Right", "Same"}
	voteKeys   = []string{"page_id", "question_id", "counts"}
	workerKeys = []string{"id", "answers"}
	answerKeys = []string{"p", "q", "c"}
)

// scan reads a fold document, the whole of b, into d. d's strings share one
// copy of b.
func (d *foldDoc) scan(b []byte) error {
	s := sessionScanner{b: b, src: string(b)}
	for seen := uint64(0); ; {
		switch s.field(foldKeys, &seen) {
		case 0:
			d.TestID = s.str()
		case 1:
			d.Sessions = s.num()
		case 2:
			d.Pages = list(&s, []PageResult{}, func(p *PageResult) {
				s.record(pageKeys, []*string{&p.PageID, &p.LeftName, &p.RightName, (*string)(&p.Kind)}, func() {
					s.object(tallyKeys, nil, &p.Tally.Left, &p.Tally.Right, &p.Tally.Same)
				})
			})
		case 3:
			d.Votes = list(&s, []voteRow{}, func(r *voteRow) {
				s.record(voteKeys, []*string{&r.PageID, &r.QuestionID}, func() { r.Counts = s.counts() })
			})
		case 4:
			// A node writes sessions first, and no more workers pass.
			d.Workers = list(&s, make([]string, 0, min(max(d.Sessions, 0), len(b)/3)), func(id *string) { *id = s.str() })
		case 5:
			// append leaves an empty list out rather than write null.
			if c := s.space(); c != '[' {
				s.mismatch(c, "an array")
			} else {
				d.Awaiting = list(&s, []FoldWorker{}, func(w *FoldWorker) {
					s.record(workerKeys, []*string{&w.ID}, func() {
						w.Answers = list(&s, []quality.ResponseKey{}, func(a *quality.ResponseKey) {
							s.object(answerKeys, []*string{&a.PageID, &a.QuestionID, (*string)(&a.Choice)})
						})
					})
				})
			}
		default:
			if _, err := s.verdict(); err != nil {
				return err
			}
			if jsonscan.SkipSpace(b, s.i) < len(b) {
				return errTrailingData
			}
			return nil
		}
	}
}

// record reads an object whose members are strs' strings but for the last
// of names, which rest reads.
func (s *sessionScanner) record(names []string, strs []*string, rest func()) {
	for seen := uint64(0); ; {
		switch k := s.field(names, &seen); {
		case k < 0:
			return
		case k < len(strs):
			*strs[k] = s.str()
		default:
			rest()
		}
	}
}

// counts reads a vote row's counts: an object whose keys are choices, or
// null for none.
func (s *sessionScanner) counts() map[questionnaire.Choice]int {
	if s.null() {
		return nil
	}
	counts := map[questionnaire.Choice]int{}
	if c := s.space(); c != '{' {
		s.mismatch(c, "an object")
		return counts
	}
	s.i++
	for c := s.space(); c != '}'; c = s.space() {
		if len(counts) > 0 {
			if c != ',' {
				s.fail("',' or '}'")
				return counts
			}
			s.i++
			s.space()
		}
		at := s.i
		choice := questionnaire.Choice(s.str())
		if _, repeated := counts[choice]; repeated {
			s.refuse(&refusal{rule: ruleRepeated, key: string(choice), at: at})
		}
		if s.space() != ':' {
			s.fail("':'")
			return counts
		}
		s.i++
		s.keyAt = at
		counts[choice] = s.num()
	}
	s.i++
	return counts
}
