// Package params implements Kaleidoscope's test-parameter schema (Table I of
// the paper): the JSON document an experimenter supplies alongside the N
// webpage versions under test. It covers parsing, validation, and the
// polymorphic "web_page_load" field that drives page-load replay.
package params

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Common validation errors.
var (
	ErrMissingTestID      = errors.New("params: test_id is required")
	ErrWebpageCount       = errors.New("params: webpage_num must match len(webpages) and be >= 2")
	ErrNoQuestions        = errors.New("params: at least one question is required")
	ErrNoParticipants     = errors.New("params: participant_num must be positive")
	ErrMissingWebPath     = errors.New("params: web_path is required for every webpage")
	ErrMissingWebMainFile = errors.New("params: web_main_file is required for every webpage")
	ErrNegativeLoadTime   = errors.New("params: page-load times must be non-negative")
	ErrSortedQuestions    = errors.New("params: a sorted test asks exactly one question")
	ErrTestIDTooLong      = fmt.Errorf("params: test_id is longer than %d bytes, each '%%' or '/' counted as three", MaxTestIDBytes)
)

// MaxTestIDBytes bounds a test id's length, each '%' or '/' in it counted as
// three bytes. A directory blob store keeps each prepared file as one file
// named by its key, testID/pageID/file with '%' and '/' written in three
// bytes each, and a file name holds at most 255 bytes. The rest of the key,
// "/<page id>/index.html" with a page id of at most 44 bytes ("pair-" and two
// int64 indices), takes at most 60 of them.
const MaxTestIDBytes = 192

// testIDBytes is the length of id as MaxTestIDBytes counts it.
func testIDBytes(id string) int {
	return len(id) + 2*(strings.Count(id, "%")+strings.Count(id, "/"))
}

// Test is the top-level test-parameter document (Table I).
type Test struct {
	// TestID identifies the test across Kaleidoscope, the crowdsourcing
	// platform, and participants.
	TestID string `json:"test_id"`
	// WebpageNum is the number of webpage versions under test.
	WebpageNum int `json:"webpage_num"`
	// TestDescription describes the test for participants.
	TestDescription string `json:"test_description"`
	// ParticipantNum is how many participants must be recruited.
	ParticipantNum int `json:"participant_num"`
	// Questions are the comparison questions asked after each integrated
	// webpage. Responses are constrained to Left / Right / Same.
	Questions []string `json:"question"`
	// Webpages holds the per-version information.
	Webpages []Webpage `json:"webpages"`
	// Sorted runs the paper's §III-D flow: each participant runs a
	// comparison sort over the versions instead of the full C(N,2)
	// round-robin, answering only the pairs the sort visits, so quality
	// control does not require every pair answered. Needs exactly one
	// question.
	Sorted bool `json:"sorted,omitempty"`
}

// Webpage describes one version of the page under test (the "webpages"
// array entries of Table I).
type Webpage struct {
	// WebPath is the relative folder path holding the version's resources.
	WebPath string `json:"web_path"`
	// WebPageLoad is the page-load simulation spec. See PageLoadSpec.
	WebPageLoad PageLoadSpec `json:"web_page_load"`
	// WebMainFile is the initial HTML file name of the version.
	WebMainFile string `json:"web_main_file"`
	// WebDescription describes the version.
	WebDescription string `json:"web_description"`
}

// PageLoadSpec is the polymorphic "web_page_load" value.
//
// Two encodings are accepted, mirroring the paper:
//
//   - A plain number N: every DOM node is revealed at a uniformly random
//     time within [0, N] milliseconds.
//   - An array of {selector: milliseconds} objects, e.g.
//     [{"#main":1000},{"#content p":1500}]: nodes matching each selector are
//     revealed at the given time. A map {"#main":1000, ...} is also accepted
//     for convenience; entries are ordered by first appearance (array form)
//     or lexicographically (map form) so round-trips are deterministic.
type PageLoadSpec struct {
	// UniformMillis is the scalar form: reveal all nodes at random times in
	// [0, UniformMillis]. Meaningful only when len(Schedule) == 0.
	UniformMillis int
	// Schedule is the per-selector form.
	Schedule []SelectorTime
}

// SelectorTime pairs a CSS selector with the reveal time of its matches.
type SelectorTime struct {
	Selector string `json:"selector"`
	Millis   int    `json:"millis"`
}

// IsUniform reports whether the spec is the scalar (uniform-random) form.
func (s PageLoadSpec) IsUniform() bool { return len(s.Schedule) == 0 }

// MaxMillis returns the time at which the replay completes: the scalar bound
// for the uniform form, or the latest scheduled reveal otherwise.
func (s PageLoadSpec) MaxMillis() int {
	if s.IsUniform() {
		return s.UniformMillis
	}
	max := 0
	for _, st := range s.Schedule {
		if st.Millis > max {
			max = st.Millis
		}
	}
	return max
}

// UnmarshalJSON implements the polymorphic decoding described on
// PageLoadSpec.
func (s *PageLoadSpec) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" || trimmed == "null" {
		*s = PageLoadSpec{}
		return nil
	}
	switch trimmed[0] {
	case '[':
		var raw []map[string]int
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("params: decoding page-load array: %w", err)
		}
		// An empty array is the zero spec, as it is encoded (the scalar 0): a
		// non-nil empty Schedule would not survive a round trip.
		var sched []SelectorTime
		for i, entry := range raw {
			if len(entry) != 1 {
				return fmt.Errorf("params: page-load array entry %d must have exactly one selector, got %d", i, len(entry))
			}
			for sel, ms := range entry {
				sched = append(sched, SelectorTime{Selector: sel, Millis: ms})
			}
		}
		*s = PageLoadSpec{Schedule: sched}
		return nil
	case '{':
		var raw map[string]int
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("params: decoding page-load map: %w", err)
		}
		selectors := make([]string, 0, len(raw))
		for sel := range raw {
			selectors = append(selectors, sel)
		}
		slices.Sort(selectors)
		var sched []SelectorTime // nil for {}, as for []
		for _, sel := range selectors {
			sched = append(sched, SelectorTime{Selector: sel, Millis: raw[sel]})
		}
		*s = PageLoadSpec{Schedule: sched}
		return nil
	default:
		var ms int
		if err := json.Unmarshal(data, &ms); err != nil {
			return fmt.Errorf("params: decoding page-load scalar: %w", err)
		}
		*s = PageLoadSpec{UniformMillis: ms}
		return nil
	}
}

// MarshalJSON emits the scalar form for uniform specs and the canonical
// array-of-single-key-objects form otherwise.
func (s PageLoadSpec) MarshalJSON() ([]byte, error) {
	if s.IsUniform() {
		return json.Marshal(s.UniformMillis)
	}
	parts := make([]map[string]int, 0, len(s.Schedule))
	for _, st := range s.Schedule {
		parts = append(parts, map[string]int{st.Selector: st.Millis})
	}
	return json.Marshal(parts)
}

// Validate checks the structural invariants of a test-parameter document.
// It returns the first violation found.
func (t *Test) Validate() error {
	if strings.TrimSpace(t.TestID) == "" {
		return ErrMissingTestID
	}
	if testIDBytes(t.TestID) > MaxTestIDBytes {
		return ErrTestIDTooLong
	}
	if t.WebpageNum < 2 || t.WebpageNum != len(t.Webpages) {
		return ErrWebpageCount
	}
	if len(t.Questions) == 0 {
		return ErrNoQuestions
	}
	if t.Sorted && len(t.Questions) != 1 {
		return ErrSortedQuestions
	}
	for i, q := range t.Questions {
		if strings.TrimSpace(q) == "" {
			return fmt.Errorf("params: question %d is empty", i)
		}
	}
	if t.ParticipantNum <= 0 {
		return ErrNoParticipants
	}
	for i, w := range t.Webpages {
		if strings.TrimSpace(w.WebPath) == "" {
			return fmt.Errorf("webpage %d: %w", i, ErrMissingWebPath)
		}
		if strings.TrimSpace(w.WebMainFile) == "" {
			return fmt.Errorf("webpage %d: %w", i, ErrMissingWebMainFile)
		}
		if w.WebPageLoad.UniformMillis < 0 {
			return fmt.Errorf("webpage %d: %w", i, ErrNegativeLoadTime)
		}
		for _, st := range w.WebPageLoad.Schedule {
			if st.Millis < 0 {
				return fmt.Errorf("webpage %d selector %q: %w", i, st.Selector, ErrNegativeLoadTime)
			}
			if strings.TrimSpace(st.Selector) == "" {
				return fmt.Errorf("webpage %d: empty selector in page-load schedule", i)
			}
		}
	}
	return nil
}

// Parse decodes and validates a JSON test-parameter document.
func Parse(data []byte) (*Test, error) {
	var t Test
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("params: decoding test parameters: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Encode renders the document as indented JSON.
func (t *Test) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("params: encoding test parameters: %w", err)
	}
	return data, nil
}

// PairCount returns C(N,2), the number of integrated webpages generated for
// N versions (before control pages).
func (t *Test) PairCount() int {
	n := t.WebpageNum
	return n * (n - 1) / 2
}
