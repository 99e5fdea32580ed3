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
	// pages indexes info.Pages by id: the upload validator's known-page
	// check, the real-vs-control split, and the canonical id strings the
	// fold state retains instead of each upload's own copies.
	pages map[string]*PageView
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
		},
		pages:     pageIndex(views),
		questions: questions,
		expected:  expected,
	}
}

// pageIndex indexes page views by id.
func pageIndex(pages []PageView) map[string]*PageView {
	idx := make(map[string]*PageView, len(pages))
	for i := range pages {
		idx[pages[i].ID] = &pages[i]
	}
	return idx
}

// resultsKey caches concluded results per test and per default-battery mode
// (only the deterministic default config is cached; custom configs bypass).
type resultsKey struct {
	testID  string
	quality bool
}

// servingCache keeps the serving path off the parse-and-scan floor: test
// metadata (params_json re-parse), decoded sessions, and concluded results
// are all cached per test id and invalidated through store change hooks.
//
// A per-test generation counter closes the fill/invalidate race: a fill
// computed from pre-invalidation state carries the generation it started
// from and is discarded when an invalidation has happened in between.
type servingCache struct {
	mu       sync.RWMutex
	gens     map[string]uint64
	tests    map[string]*testEntry
	sessions map[string][]SessionUpload
	results  map[resultsKey]*Results

	// staleTests and staleResults are last-known-good snapshots for
	// degraded-mode serving: every accepted (and even generation-raced —
	// the data itself is valid) fill lands here too, and invalidation never
	// clears them. While the store circuit breaker is open, reads that miss
	// the live cache fall back to these instead of touching the faulting
	// store.
	staleTests   map[string]*testEntry
	staleResults map[resultsKey]*Results

	testHits, testMisses       atomic.Int64
	sessionHits, sessionMisses atomic.Int64
	resultHits, resultMisses   atomic.Int64
}

func newServingCache() *servingCache {
	return &servingCache{
		gens:         make(map[string]uint64),
		tests:        make(map[string]*testEntry),
		sessions:     make(map[string][]SessionUpload),
		results:      make(map[resultsKey]*Results),
		staleTests:   make(map[string]*testEntry),
		staleResults: make(map[resultsKey]*Results),
	}
}

// gen returns the current generation for a test id.
func (c *servingCache) gen(testID string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gens[testID]
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
	c.staleTests[testID] = e
	if c.gens[testID] != gen {
		return
	}
	c.tests[testID] = e
}

// staleTest returns the last-known-good entry for degraded-mode serving.
func (c *servingCache) staleTest(testID string) (*testEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.staleTests[testID]
	return e, ok
}

func (c *servingCache) sessionsFor(testID string) ([]SessionUpload, bool) {
	c.mu.RLock()
	s, ok := c.sessions[testID]
	c.mu.RUnlock()
	if ok {
		c.sessionHits.Add(1)
	} else {
		c.sessionMisses.Add(1)
	}
	return s, ok
}

func (c *servingCache) putSessions(testID string, gen uint64, s []SessionUpload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[testID] != gen {
		return
	}
	c.sessions[testID] = s
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
	c.staleResults[key] = r
	if c.gens[key.testID] != gen {
		return false
	}
	c.results[key] = r
	return true
}

// staleResults returns the last-known-good conclusion for degraded-mode
// serving.
func (c *servingCache) staleResultsFor(key resultsKey) (*Results, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.staleResults[key]
	return r, ok
}

// invalidateTest drops everything derived from a test's stored documents.
func (c *servingCache) invalidateTest(testID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[testID]++
	delete(c.tests, testID)
	c.dropDerived(testID)
}

// invalidateSessions drops session-derived state (decoded sessions and
// concluded results) after a new session insert; the test metadata itself
// stays cached.
func (c *servingCache) invalidateSessions(testID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[testID]++
	c.dropDerived(testID)
}

func (c *servingCache) dropDerived(testID string) {
	delete(c.sessions, testID)
	delete(c.results, resultsKey{testID, false})
	delete(c.results, resultsKey{testID, true})
}

// purgeTest erases every trace of a deleted test, including the
// last-known-good degraded-mode snapshots that ordinary invalidation
// deliberately preserves: after deletion there is no "good" state left to
// serve. The generation entry is kept (bumped), not deleted — a results
// fill that raced the deletion still has to find a generation newer than
// its snapshot, or it would re-populate the live cache for a test that no
// longer exists.
func (c *servingCache) purgeTest(testID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[testID]++
	delete(c.tests, testID)
	c.dropDerived(testID)
	delete(c.staleTests, testID)
	delete(c.staleResults, resultsKey{testID, false})
	delete(c.staleResults, resultsKey{testID, true})
}

// invalidateAll resets the cache (used when a change event's test id cannot
// be attributed).
func (c *servingCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.gens {
		c.gens[id]++
	}
	// Entries for ids never seen under gens still need a bump marker.
	for id := range c.tests {
		c.gens[id]++
	}
	c.tests = make(map[string]*testEntry)
	c.sessions = make(map[string][]SessionUpload)
	c.results = make(map[resultsKey]*Results)
}
