package server

import (
	"strconv"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/quality"
	"kaleidoscope/internal/questionnaire"
)

// testEntry is the serving-side view of one prepared test, kept in the
// test's record (fold.go): the full Prepared (control answers included, for
// concluding), the redacted extension-facing TestInfo, and the lookups every
// stored session goes through — built once here instead of once per upload.
// Entries are immutable once installed; handlers only read and serialize
// them.
type testEntry struct {
	prep *aggregator.Prepared
	info *TestInfo
	// pages gives each page id's place in info.Pages and every page spine:
	// the upload validator's known-page check, the real-vs-control split, and
	// the canonical id strings the fold state keeps instead of an upload's.
	pages map[string]int
	// questions holds the ids the extension gives the test's questions
	// ("q0", "q1", ...), for the same interning.
	questions map[string]string
	// expected is the control-answer lookup used to score uploads.
	expected map[string]questionnaire.Choice
	// qc is the test's default battery (defaultQCInfo), which ?quality=1
	// applies.
	qc quality.Config
}

func newTestEntry(prep *aggregator.Prepared) *testEntry {
	views := make([]PageView, len(prep.Pages))
	expected := make(map[string]questionnaire.Choice)
	for i, p := range prep.Pages {
		views[i] = PageView{
			ID:        p.ID,
			TestID:    p.TestID,
			LeftName:  p.LeftName,
			RightName: p.RightName,
			Kind:      p.Kind,
		}
		if p.Kind == aggregator.KindControl {
			expected[p.ID] = p.Expected
		}
	}
	questions := make(map[string]string, len(prep.Test.Questions))
	for i := range prep.Test.Questions {
		id := "q" + strconv.Itoa(i)
		questions[id] = id
	}
	info := &TestInfo{
		TestID:      prep.Test.TestID,
		Description: prep.Test.TestDescription,
		Questions:   prep.Test.Questions,
		Pages:       views,
		Sorted:      prep.Test.Sorted,
	}
	return &testEntry{
		prep:      prep,
		info:      info,
		pages:     pageIndex(views),
		questions: questions,
		expected:  expected,
		qc:        *defaultQCInfo(info),
	}
}

// pageIndex indexes page views by id.
func pageIndex(pages []PageView) map[string]int {
	idx := make(map[string]int, len(pages))
	for i := range pages {
		idx[pages[i].ID] = i
	}
	return idx
}
