package server

import (
	"strconv"
	"sync"
	"sync/atomic"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/questionnaire"
)

// testEntry is the cached serving-side view of one prepared test: the full
// Prepared (control answers included, for concluding), the redacted
// extension-facing TestInfo, and the lookups every stored session goes
// through — built once here instead of once per upload. Entries are
// immutable once cached; handlers only read and serialize them.
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
	return &testEntry{
		prep: prep,
		info: &TestInfo{
			TestID:      prep.Test.TestID,
			Description: prep.Test.TestDescription,
			Questions:   prep.Test.Questions,
			Pages:       views,
			Sorted:      prep.Test.Sorted,
		},
		pages:     pageIndex(views),
		questions: questions,
		expected:  expected,
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

// resultsKey caches concluded results per test, raw and under the default
// battery.
type resultsKey struct {
	testID  string
	quality bool
}

// servingCache keeps the serving path off the parse-and-scan floor: test
// metadata (params_json re-parse) and concluded results are cached per test
// id and invalidated through store change hooks.
//
// Per-test generation counters close the fill/invalidate race: a fill
// computed from pre-invalidation state carries the generation it started
// from and is discarded when an invalidation has happened in between. Every
// change to a test moves gens, which results fills check; only a metadata
// change moves testGens, which test entry fills check.
type servingCache struct {
	mu             sync.RWMutex
	gens, testGens map[string]uint64
	tests          map[string]*testEntry
	results        map[resultsKey]*Results

	testHits, testMisses     atomic.Int64
	resultHits, resultMisses atomic.Int64
}

func newServingCache() *servingCache {
	return &servingCache{
		gens:     make(map[string]uint64),
		testGens: make(map[string]uint64),
		tests:    make(map[string]*testEntry),
		results:  make(map[resultsKey]*Results),
	}
}

// gen returns the current generation for a test id.
func (c *servingCache) gen(testID string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gens[testID]
}

// testGen returns the current generation of a test id's metadata.
func (c *servingCache) testGen(testID string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.testGens[testID]
}

func (c *servingCache) test(testID string) (*testEntry, bool) {
	c.mu.RLock()
	e, ok := c.tests[testID]
	c.mu.RUnlock()
	if ok {
		c.testHits.Add(1)
	} else {
		c.testMisses.Add(1)
	}
	return e, ok
}

func (c *servingCache) putTest(testID string, gen uint64, e *testEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.testGens[testID] != gen {
		return
	}
	c.tests[testID] = e
}

func (c *servingCache) resultsFor(key resultsKey) (*Results, bool) {
	c.mu.RLock()
	r, ok := c.results[key]
	c.mu.RUnlock()
	if ok {
		c.resultHits.Add(1)
	} else {
		c.resultMisses.Add(1)
	}
	return r, ok
}

// putResults caches a computed conclusion and reports whether it was
// accepted; a fill computed against a superseded generation is rejected so
// the cache never claims a generation newer than the data it serves.
func (c *servingCache) putResults(key resultsKey, gen uint64, r *Results) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[key.testID] != gen {
		return false
	}
	c.results[key] = r
	return true
}

// invalidateTest drops everything derived from a test's stored documents.
func (c *servingCache) invalidateTest(testID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[testID]++
	c.testGens[testID]++
	delete(c.tests, testID)
	c.dropDerived(testID)
}

// invalidateSessions drops session-derived state (concluded results) after
// a new session insert; the test metadata itself stays cached.
func (c *servingCache) invalidateSessions(testID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[testID]++
	c.dropDerived(testID)
}

func (c *servingCache) dropDerived(testID string) {
	delete(c.results, resultsKey{testID, false})
	delete(c.results, resultsKey{testID, true})
}

// invalidateAll resets the cache (used when a change event's test id cannot
// be attributed).
func (c *servingCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.gens {
		c.gens[id]++
	}
	for id := range c.testGens {
		c.testGens[id]++
	}
	// Entries for ids never seen under gens still need a bump marker.
	for id := range c.tests {
		c.gens[id]++
		c.testGens[id]++
	}
	c.tests = make(map[string]*testEntry)
	c.results = make(map[resultsKey]*Results)
}
