package questionnaire

import (
	"errors"
	"testing"
)

func TestChoiceValidAndOpposite(t *testing.T) {
	if !ChoiceLeft.Valid() || !ChoiceRight.Valid() || !ChoiceSame.Valid() {
		t.Error("legal choices should be valid")
	}
	if Choice("maybe").Valid() {
		t.Error("illegal choice should be invalid")
	}
	if ChoiceLeft.Opposite() != ChoiceRight || ChoiceRight.Opposite() != ChoiceLeft {
		t.Error("Left/Right should mirror")
	}
	if ChoiceSame.Opposite() != ChoiceSame {
		t.Error("Same should be its own mirror")
	}
}

func TestQuestionValidate(t *testing.T) {
	if err := (Question{ID: "q1", Text: "Which is better?"}).Validate(); err != nil {
		t.Errorf("valid question: %v", err)
	}
	if err := (Question{ID: " ", Text: "t"}).Validate(); err == nil {
		t.Error("empty id should fail")
	}
	if err := (Question{ID: "q", Text: ""}).Validate(); err == nil {
		t.Error("empty text should fail")
	}
}

func validResponse() Response {
	return Response{
		TestID: "t1", WorkerID: "w1", PageID: "p1", QuestionID: "q1",
		Choice: ChoiceLeft, DurationMillis: 1500,
	}
}

func TestResponseValidate(t *testing.T) {
	if err := validResponse().Validate(); err != nil {
		t.Errorf("valid response: %v", err)
	}
	r := validResponse()
	r.WorkerID = ""
	if err := r.Validate(); err == nil {
		t.Error("missing worker should fail")
	}
	r = validResponse()
	r.Choice = "meh"
	if err := r.Validate(); !errors.Is(err, ErrBadChoice) {
		t.Errorf("bad choice err = %v", err)
	}
	r = validResponse()
	r.DurationMillis = -1
	if err := r.Validate(); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestTally(t *testing.T) {
	var tally Tally
	for _, c := range []Choice{ChoiceLeft, ChoiceLeft, ChoiceRight, ChoiceSame, Choice("junk")} {
		tally.Add(c)
	}
	if tally.Left != 2 || tally.Right != 1 || tally.Same != 1 {
		t.Errorf("tally = %+v", tally)
	}
	if tally.Total() != 4 {
		t.Errorf("total = %d", tally.Total())
	}
	if got := tally.Proportion(ChoiceLeft); got != 0.5 {
		t.Errorf("P(left) = %v", got)
	}
	if got := tally.Proportion(Choice("junk")); got != 0 {
		t.Errorf("P(junk) = %v", got)
	}
	winner, unique := tally.Winner()
	if winner != ChoiceLeft || !unique {
		t.Errorf("winner = %v unique=%v", winner, unique)
	}
}

func TestTallyWinnerTie(t *testing.T) {
	tally := Tally{Left: 2, Right: 2, Same: 1}
	winner, unique := tally.Winner()
	if unique {
		t.Error("tie should not be unique")
	}
	if winner != ChoiceLeft {
		t.Errorf("tie winner = %v, want first-listed Left", winner)
	}
}

func TestTallyEmpty(t *testing.T) {
	var tally Tally
	if tally.Proportion(ChoiceSame) != 0 {
		t.Error("empty tally proportion should be 0")
	}
	if _, unique := tally.Winner(); unique {
		t.Error("empty tally winner should not be unique")
	}
}
