// Package questionnaire models Kaleidoscope's tester feedback: comparison
// questions asked after each integrated (side-by-side) webpage, the
// constrained Left/Right/Same answers the paper requires, optional
// free-text comments, and tallies over collected responses.
package questionnaire

import (
	"errors"
	"fmt"
	"strings"
)

// Choice is a side-by-side comparison answer. The paper constrains every
// response to one of these three.
type Choice string

// The three legal answers.
const (
	ChoiceLeft  Choice = "left"
	ChoiceRight Choice = "right"
	ChoiceSame  Choice = "same"
)

// ErrBadChoice reports an answer that is not one of the three.
var ErrBadChoice = errors.New("questionnaire: answer must be Left, Right, or Same")

// Valid reports whether c is one of the three legal answers.
func (c Choice) Valid() bool {
	return c == ChoiceLeft || c == ChoiceRight || c == ChoiceSame
}

// Opposite mirrors the choice (Left <-> Right); Same is its own mirror.
// Used when the same version pair is shown with sides swapped.
func (c Choice) Opposite() Choice {
	switch c {
	case ChoiceLeft:
		return ChoiceRight
	case ChoiceRight:
		return ChoiceLeft
	default:
		return c
	}
}

// Question is one comparison question shown after an integrated webpage.
type Question struct {
	// ID is stable across the test (e.g. "q-font-size").
	ID string `json:"id"`
	// Text is shown to the participant.
	Text string `json:"text"`
}

// Validate checks the question is usable.
func (q Question) Validate() error {
	if strings.TrimSpace(q.ID) == "" {
		return errors.New("questionnaire: question id is empty")
	}
	if strings.TrimSpace(q.Text) == "" {
		return errors.New("questionnaire: question text is empty")
	}
	return nil
}

// Response is one participant's answer to one question on one integrated
// webpage.
type Response struct {
	TestID     string `json:"test_id"`
	WorkerID   string `json:"worker_id"`
	PageID     string `json:"page_id"` // integrated webpage id
	QuestionID string `json:"question_id"`
	Choice     Choice `json:"choice"`
	// Comment is the optional free-text feedback (the paper's Fig. 9
	// experiment collects these).
	Comment string `json:"comment,omitempty"`
	// DurationMillis is the time spent on this side-by-side comparison.
	DurationMillis int `json:"duration_millis"`
}

// Validate checks structural sanity.
func (r Response) Validate() error {
	if r.TestID == "" || r.WorkerID == "" || r.PageID == "" || r.QuestionID == "" {
		return errors.New("questionnaire: response missing identifiers")
	}
	if !r.Choice.Valid() {
		return fmt.Errorf("%w: %q", ErrBadChoice, r.Choice)
	}
	if r.DurationMillis < 0 {
		return errors.New("questionnaire: negative duration")
	}
	return nil
}

// Tally counts answers per choice.
type Tally struct {
	Left, Right, Same int
}

// Add records one choice; unknown values are ignored.
func (t *Tally) Add(c Choice) {
	switch c {
	case ChoiceLeft:
		t.Left++
	case ChoiceRight:
		t.Right++
	case ChoiceSame:
		t.Same++
	}
}

// Total returns the number of counted answers.
func (t Tally) Total() int { return t.Left + t.Right + t.Same }

// Proportion returns the fraction of answers equal to c (0 when empty).
func (t Tally) Proportion(c Choice) float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	switch c {
	case ChoiceLeft:
		return float64(t.Left) / float64(total)
	case ChoiceRight:
		return float64(t.Right) / float64(total)
	case ChoiceSame:
		return float64(t.Same) / float64(total)
	default:
		return 0
	}
}

// Winner returns the plurality choice and whether it is unique.
func (t Tally) Winner() (Choice, bool) {
	type pair struct {
		c Choice
		n int
	}
	ordered := []pair{{ChoiceLeft, t.Left}, {ChoiceRight, t.Right}, {ChoiceSame, t.Same}}
	best := ordered[0]
	unique := true
	for _, p := range ordered[1:] {
		switch {
		case p.n > best.n:
			best = p
			unique = true
		case p.n == best.n:
			unique = false
		}
	}
	return best.c, unique
}
