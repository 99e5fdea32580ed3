// Package aggregator implements Kaleidoscope's test-data preparation (paper
// §III-B). Given N webpage versions and the test parameters it:
//
//  1. compresses each version into a single self-contained HTML file
//     (SingleFile-style) so the browser extension can download it,
//  2. injects the page-load replay spec into each compressed version,
//  3. generates one integrated webpage per unordered pair of versions —
//     an initial HTML document with two side-by-side iframes — plus
//     control pages (an identical pair, and any caller-supplied pairs
//     with known answers) for quality control,
//  4. stores everything in the document database and blob store the core
//     server serves from.
//
// Preparation is C(N,2)-shaped work and runs as a staged concurrent
// pipeline by default: a bounded worker pool compresses all versions and
// control sides, a barrier, then the integrated-page builds fan out over
// the same pool. A version is compressed once per blob store: a job whose
// input (the site's bytes and the replay spec) the store has compressed
// before takes the stored payload from the store's memo, and identical
// inputs within one Prepare share one job. Each compressed payload is
// hashed once, in the compress stage, and identical payloads are stored
// once (the blob store's content-addressed layer). Output is
// deterministic — page order, IDs, stored bytes, and first-error behavior
// are independent of scheduling and match the straight-line reference path
// (WithSequential), which the differential determinism tests enforce.
package aggregator

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/inline"
	"kaleidoscope/internal/pageload"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// Collection names, mirroring the paper's three MongoDB collections.
const (
	TestsCollection     = "tests"
	PagesCollection     = "integrated_pages"
	ResponsesCollection = "responses"
)

// PageKind distinguishes real comparisons from quality-control pages.
type PageKind string

// Page kinds.
const (
	KindReal    PageKind = "real"
	KindControl PageKind = "control"
)

// PairPageID is the id of the real page that shows version i on the left
// and version j on the right.
func PairPageID(i, j int) string { return fmt.Sprintf("pair-%d-%d", i, j) }

// ParsePairPageID is PairPageID's inverse: it returns the versions of a
// real page's id, and false for any other id, among them one with j <= i,
// which Prepare never builds.
func ParsePairPageID(id string) (i, j int, ok bool) {
	rest, found := strings.CutPrefix(id, "pair-")
	left, right, cut := strings.Cut(rest, "-")
	if !found || !cut {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(left)
	j, err2 := strconv.Atoi(right)
	if err1 != nil || err2 != nil || j <= i || PairPageID(i, j) != id {
		return 0, 0, false
	}
	return i, j, true
}

// IntegratedPage describes one side-by-side page.
type IntegratedPage struct {
	ID        string   `json:"id"`
	TestID    string   `json:"test_id"`
	LeftName  string   `json:"left"`
	RightName string   `json:"right"`
	Kind      PageKind `json:"kind"`
	// Expected is the known answer for control pages ("" for real pages).
	Expected questionnaire.Choice `json:"expected,omitempty"`
}

// ControlPair is a caller-supplied control page with a known answer (the
// paper's "two significantly different webpages" control, e.g. 4pt vs
// 12pt main text).
type ControlPair struct {
	Name     string
	Left     *webgen.Site
	Right    *webgen.Site
	Expected questionnaire.Choice
}

// Prepared is the aggregator's output: everything the core server needs.
type Prepared struct {
	Test *params.Test
	// Pages lists integrated pages in presentation order: real pairs
	// first, controls appended.
	Pages []IntegratedPage
}

// RealPages returns only the non-control pages.
func (p *Prepared) RealPages() []IntegratedPage {
	var out []IntegratedPage
	for _, page := range p.Pages {
		if page.Kind == KindReal {
			out = append(out, page)
		}
	}
	return out
}

// ControlPages returns only the control pages.
func (p *Prepared) ControlPages() []IntegratedPage {
	var out []IntegratedPage
	for _, page := range p.Pages {
		if page.Kind == KindControl {
			out = append(out, page)
		}
	}
	return out
}

// Aggregator wires the preparation pipeline to storage.
type Aggregator struct {
	db         *store.DB
	blobs      *store.BlobStore
	workers    int
	sequential bool
}

// Option configures an Aggregator.
type Option func(*Aggregator)

// WithWorkers bounds the preparation pool at n concurrent workers. Zero or
// negative means GOMAXPROCS; 1 runs the pipeline on a single worker
// (still through the staged path — see WithSequential for the reference
// implementation).
func WithWorkers(n int) Option {
	return func(a *Aggregator) { a.workers = n }
}

// WithSequential selects the straight-line reference implementation of
// Prepare — no pool, no stages, no memo: it compresses every version. It
// exists for differential testing and benchmarking against the pipeline;
// outputs are bit-identical either way.
func WithSequential() Option {
	return func(a *Aggregator) { a.sequential = true }
}

// New returns an aggregator over the given storage. It declares the
// test_id indexes the by-test lookups (LoadPrepared, the server's session
// queries) rely on; EnsureIndex is idempotent, so this composes with other
// components declaring the same indexes.
func New(db *store.DB, blobs *store.BlobStore, opts ...Option) (*Aggregator, error) {
	if db == nil || blobs == nil {
		return nil, errors.New("aggregator: nil storage")
	}
	db.Collection(PagesCollection).EnsureIndex("test_id")
	db.Collection(ResponsesCollection).EnsureIndex("test_id")
	a := &Aggregator{db: db, blobs: blobs}
	for _, opt := range opts {
		opt(a)
	}
	if a.workers <= 0 {
		a.workers = runtime.GOMAXPROCS(0)
	}
	return a, nil
}

// Prepare runs the full preparation pipeline. The sites map is keyed by
// each webpage's WebPath from the test parameters. Extra control pairs are
// optional; an identical-pair control (expected answer "Same") is always
// generated from the first version.
//
// On failure Prepare returns the first error in pipeline order (the error
// the sequential path would have hit) and removes everything it wrote for
// the test — blobs and documents — so a failed preparation leaves no
// partial state behind. Preparing a test id that is already stored replaces
// it: pages the new spine lacks go with their documents and blobs.
func (a *Aggregator) Prepare(test *params.Test, sites map[string]*webgen.Site, extraControls []ControlPair) (*Prepared, error) {
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("aggregator: %w", err)
	}
	var (
		prep *Prepared
		err  error
	)
	if a.sequential {
		prep, err = a.prepareSequential(test, sites, extraControls)
	} else {
		prep, err = a.preparePipeline(test, sites, extraControls)
	}
	if err != nil {
		a.cleanupTest(test.TestID)
		return nil, err
	}
	return prep, nil
}

// compressJob is one unit of the pipeline's first stage: inline a version
// (or control side) into a single file, inject its replay spec and digest
// the rendered page. Inputs with equal bytes share one job, so duplicated
// control sides are compressed once, and a job the blob store has seen
// before is not compressed at all.
type compressJob struct {
	site *webgen.Site
	spec params.PageLoadSpec
	// input is inputDigest(site, spec): the job's identity within a
	// Prepare and its key in the blob store's memo.
	input string
	// wrap decorates a failure with the position-specific message the
	// sequential path produces for this job's first occurrence.
	wrap     func(error) error
	out      store.Payload
	recalled bool // out came from the blob store's memo
}

// buildJob is one unit of the pipeline's second stage: assemble and store
// one integrated page.
type buildJob struct {
	pageID      string
	left, right *compressJob
}

// preparePipeline is the staged concurrent implementation of Prepare.
func (a *Aggregator) preparePipeline(test *params.Test, sites map[string]*webgen.Site, extraControls []ControlPair) (*Prepared, error) {
	// Stage 0 (serial, but for the input digests, which decide no order
	// and are taken on the pool): validate inputs and lay out the compress
	// jobs, the page list, and the build jobs deterministically. All
	// ordering decisions happen here, before anything runs concurrently.
	var sides []*compressJob // every version and control side, in pipeline order
	newJob := func(site *webgen.Site, spec params.PageLoadSpec, wrap func(error) error) *compressJob {
		j := &compressJob{site: site, spec: spec, wrap: wrap}
		sides = append(sides, j)
		return j
	}

	versionJobs := make([]*compressJob, len(test.Webpages))
	names := make([]string, len(test.Webpages))
	for i, wp := range test.Webpages {
		site, ok := sites[wp.WebPath]
		if !ok {
			return nil, fmt.Errorf("aggregator: no site provided for web_path %q", wp.WebPath)
		}
		path := wp.WebPath
		versionJobs[i] = newJob(site, wp.WebPageLoad, func(err error) error {
			return fmt.Errorf("aggregator: version %q: %w", path, err)
		})
		names[i] = path
	}
	ctlJobs := make([][2]*compressJob, len(extraControls))
	for k, ctl := range extraControls {
		if !ctl.Expected.Valid() {
			return nil, fmt.Errorf("aggregator: control %d has invalid expected answer %q", k, ctl.Expected)
		}
		k := k
		ctlJobs[k][0] = newJob(ctl.Left, params.PageLoadSpec{}, func(err error) error {
			return fmt.Errorf("aggregator: control %d left: %w", k, err)
		})
		ctlJobs[k][1] = newJob(ctl.Right, params.PageLoadSpec{}, func(err error) error {
			return fmt.Errorf("aggregator: control %d right: %w", k, err)
		})
	}
	// Digest every side on the pool (a digest cannot fail), then let sides
	// with equal inputs share the first one's job.
	_ = a.runJobs(len(sides), func(i int) error {
		sides[i].input = inputDigest(sides[i].site, sides[i].spec)
		return nil
	})
	var jobs []*compressJob
	byInput := make(map[string]*compressJob)
	merge := func(j *compressJob) *compressJob {
		if first, ok := byInput[j.input]; ok {
			return first
		}
		byInput[j.input] = j
		jobs = append(jobs, j)
		return j
	}
	for i := range versionJobs {
		versionJobs[i] = merge(versionJobs[i])
	}
	for k := range ctlJobs {
		ctlJobs[k] = [2]*compressJob{merge(ctlJobs[k][0]), merge(ctlJobs[k][1])}
	}

	prep := &Prepared{Test: test}
	var builds []buildJob
	addPage := func(page IntegratedPage, left, right *compressJob) {
		prep.Pages = append(prep.Pages, page)
		builds = append(builds, buildJob{pageID: page.ID, left: left, right: right})
	}
	for i := 0; i < len(versionJobs); i++ {
		for j := i + 1; j < len(versionJobs); j++ {
			addPage(IntegratedPage{
				ID: PairPageID(i, j), TestID: test.TestID,
				LeftName: names[i], RightName: names[j], Kind: KindReal,
			}, versionJobs[i], versionJobs[j])
		}
	}
	addPage(IntegratedPage{
		ID: "control-same", TestID: test.TestID,
		LeftName: names[0], RightName: names[0],
		Kind: KindControl, Expected: questionnaire.ChoiceSame,
	}, versionJobs[0], versionJobs[0])
	for k, ctl := range extraControls {
		id := fmt.Sprintf("control-%d", k)
		name := ctl.Name
		if name == "" {
			name = id
		}
		addPage(IntegratedPage{
			ID: id, TestID: test.TestID,
			LeftName: name + "-left", RightName: name + "-right",
			Kind: KindControl, Expected: ctl.Expected,
		}, ctlJobs[k][0], ctlJobs[k][1])
	}

	// Stage 1 (pool): compress every distinct version and control side the
	// blob store cannot recall.
	if err := a.runJobs(len(jobs), func(i int) error {
		j := jobs[i]
		if j.out, j.recalled = a.blobs.Recall(j.input); j.recalled {
			return nil
		}
		out, err := compressVersion(j.site, j.spec)
		if err != nil {
			return j.wrap(err)
		}
		j.out = out
		return nil
	}); err != nil {
		return nil, err
	}

	// Stage 2 (pool): fan out the integrated-page builds and blob writes.
	if err := a.runJobs(len(builds), func(i int) error {
		b := builds[i]
		return a.storeIntegrated(test.TestID, b.pageID, b.left.out, b.right.out)
	}); err != nil {
		return nil, err
	}
	// Every payload is stored now, so the memo can name it.
	for _, j := range jobs {
		if !j.recalled {
			a.blobs.Remember(j.input, j.out)
		}
	}

	if err := a.persist(prep); err != nil {
		return nil, err
	}
	return prep, nil
}

// runJobs executes fn(0..n-1) over the aggregator's worker pool and
// returns the failed job with the lowest index — "first error" in pipeline
// order, not completion order, so the reported error is deterministic.
// Every job runs even when an earlier one fails; jobs are independent and
// the failure path cleans up wholesale afterwards.
func (a *Aggregator) runJobs(n int, fn func(int) error) error {
	workers := a.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepareSequential is the straight-line reference implementation the
// pipeline is differentially tested against.
func (a *Aggregator) prepareSequential(test *params.Test, sites map[string]*webgen.Site, extraControls []ControlPair) (*Prepared, error) {
	// Compress + inject every version.
	singles := make([]store.Payload, len(test.Webpages))
	names := make([]string, len(test.Webpages))
	for i, wp := range test.Webpages {
		site, ok := sites[wp.WebPath]
		if !ok {
			return nil, fmt.Errorf("aggregator: no site provided for web_path %q", wp.WebPath)
		}
		single, err := compressVersion(site, wp.WebPageLoad)
		if err != nil {
			return nil, fmt.Errorf("aggregator: version %q: %w", wp.WebPath, err)
		}
		singles[i] = single
		names[i] = wp.WebPath
	}

	prep := &Prepared{Test: test}

	// Real pairs: C(N,2) integrated pages.
	for i := 0; i < len(singles); i++ {
		for j := i + 1; j < len(singles); j++ {
			id := PairPageID(i, j)
			page := IntegratedPage{
				ID: id, TestID: test.TestID,
				LeftName: names[i], RightName: names[j], Kind: KindReal,
			}
			if err := a.storeIntegrated(test.TestID, id, singles[i], singles[j]); err != nil {
				return nil, err
			}
			prep.Pages = append(prep.Pages, page)
		}
	}

	// Identical-pair control: the same version on both sides.
	sameID := "control-same"
	if err := a.storeIntegrated(test.TestID, sameID, singles[0], singles[0]); err != nil {
		return nil, err
	}
	prep.Pages = append(prep.Pages, IntegratedPage{
		ID: sameID, TestID: test.TestID,
		LeftName: names[0], RightName: names[0],
		Kind: KindControl, Expected: questionnaire.ChoiceSame,
	})

	// Caller-supplied known-answer controls.
	for k, ctl := range extraControls {
		if !ctl.Expected.Valid() {
			return nil, fmt.Errorf("aggregator: control %d has invalid expected answer %q", k, ctl.Expected)
		}
		left, err := compressVersion(ctl.Left, params.PageLoadSpec{})
		if err != nil {
			return nil, fmt.Errorf("aggregator: control %d left: %w", k, err)
		}
		right, err := compressVersion(ctl.Right, params.PageLoadSpec{})
		if err != nil {
			return nil, fmt.Errorf("aggregator: control %d right: %w", k, err)
		}
		id := fmt.Sprintf("control-%d", k)
		if err := a.storeIntegrated(test.TestID, id, left, right); err != nil {
			return nil, err
		}
		name := ctl.Name
		if name == "" {
			name = id
		}
		prep.Pages = append(prep.Pages, IntegratedPage{
			ID: id, TestID: test.TestID,
			LeftName: name + "-left", RightName: name + "-right",
			Kind: KindControl, Expected: ctl.Expected,
		})
	}

	if err := a.persist(prep); err != nil {
		return nil, err
	}
	return prep, nil
}

// cleanupTest removes everything a failed Prepare may have written for the
// test: its blob prefix and its test/page documents. Idempotent; missing
// state is fine.
func (a *Aggregator) cleanupTest(testID string) {
	_, _ = a.blobs.DeletePrefix(testID + "/")
	_ = a.db.Collection(TestsCollection).Delete(testID)
	pages := a.db.Collection(PagesCollection)
	for _, doc := range pages.FindEq("test_id", testID) {
		_ = pages.Delete(doc.ID())
	}
}

// inputDigest returns the raw SHA-256 of everything compressVersion reads:
// the site's main file name, each file's path and bytes in path order, and
// the replay spec. Every field is length-prefixed, so no two inputs share an
// encoding, and a nil site has a digest of its own.
func inputDigest(site *webgen.Site, spec params.PageLoadSpec) string {
	h := sha256.New()
	var buf []byte
	num := func(n int) {
		buf = binary.AppendVarint(buf[:0], int64(n))
		h.Write(buf)
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	str("aggregator.compressVersion")
	if site == nil {
		num(-1)
	} else {
		paths := site.Paths()
		num(len(paths))
		str(site.MainFile)
		for _, p := range paths {
			str(p)
			num(len(site.Files[p]))
			h.Write(site.Files[p])
		}
	}
	num(spec.UniformMillis)
	num(len(spec.Schedule))
	for _, st := range spec.Schedule {
		str(st.Selector)
		num(st.Millis)
	}
	return string(h.Sum(nil))
}

// compressVersion inlines a version into one document, injects the replay
// spec into that same tree, renders it once and digests the result.
func compressVersion(site *webgen.Site, spec params.PageLoadSpec) (store.Payload, error) {
	if site == nil {
		return store.Payload{}, errors.New("nil site")
	}
	doc, _, err := inline.Tree(site)
	if err != nil {
		return store.Payload{}, err
	}
	if err := pageload.InjectSpec(doc, spec); err != nil {
		return store.Payload{}, err
	}
	return store.NewPayload([]byte(htmlx.Render(doc))), nil
}

// integratedShell is every integrated page's index.html: the two versions'
// iframes side by side (Fig. 1). Its bytes never change, so it is digested
// once per process.
var integratedShell = store.NewPayload([]byte(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Kaleidoscope side-by-side test</title>
<style>html, body { margin: 0; height: 100%; }
.kscope-wrap { display: flex; width: 100%; height: 100%; }
.kscope-pane { flex: 1 1 50%; height: 100%; border: none; }
.kscope-divider { width: 2px; background: #444; }
</style>
</head>
<body>
<div class="kscope-wrap">
<iframe id="kscope-left" class="kscope-pane" src="left.html"></iframe>
<div class="kscope-divider"></div>
<iframe id="kscope-right" class="kscope-pane" src="right.html"></iframe>
</div>
</body>
</html>
`))

// storeIntegrated stores one integrated page's folder (index.html +
// left.html + right.html) in the blob store.
func (a *Aggregator) storeIntegrated(testID, pageID string, left, right store.Payload) error {
	return a.blobs.PutSite(testID, pageID, "index.html", map[string]store.Payload{
		"index.html": integratedShell,
		"left.html":  left,
		"right.html": right,
	})
}

// persist writes the page documents to the database. Over a test that is
// already stored, it then removes the pages the new spine lacks: their
// documents and their blob folders, whose CAS references go with them.
// The test document goes last, so a reader that finds it finds every page
// it counts.
func (a *Aggregator) persist(prep *Prepared) error {
	encoded, err := prep.Test.Encode()
	if err != nil {
		return fmt.Errorf("aggregator: %w", err)
	}
	testDoc := store.Document{
		store.IDField:  prep.Test.TestID,
		"description":  prep.Test.TestDescription,
		"participants": prep.Test.ParticipantNum,
		"questions":    prep.Test.Questions,
		"page_count":   len(prep.Pages),
		"params_json":  string(encoded),
	}
	pages := a.db.Collection(PagesCollection)
	earlier := pages.FindEq("test_id", prep.Test.TestID)
	spine := make(map[string]bool, len(prep.Pages))
	for _, p := range prep.Pages {
		spine[p.ID] = true
		doc := store.Document{
			store.IDField: p.TestID + "/" + p.ID,
			"page_id":     p.ID,
			"test_id":     p.TestID,
			"left":        p.LeftName,
			"right":       p.RightName,
			"kind":        string(p.Kind),
			"expected":    string(p.Expected),
		}
		if _, err := pages.Insert(doc); err != nil {
			return fmt.Errorf("aggregator: storing page %s: %w", p.ID, err)
		}
	}
	for _, doc := range earlier {
		id := docString(doc, "page_id")
		if spine[id] {
			continue
		}
		if err := pages.Delete(doc.ID()); err != nil {
			return fmt.Errorf("aggregator: removing stale page %s: %w", id, err)
		}
		if _, err := a.blobs.DeletePrefix(prep.Test.TestID + "/" + id + "/"); err != nil {
			return fmt.Errorf("aggregator: removing stale page %s: %w", id, err)
		}
	}
	if _, err := a.db.Collection(TestsCollection).Insert(testDoc); err != nil {
		return fmt.Errorf("aggregator: storing test: %w", err)
	}
	return nil
}

// LoadPrepared reconstructs a Prepared from storage — what the core server
// does when serving a test it did not prepare itself.
func LoadPrepared(db *store.DB, testID string) (*Prepared, error) {
	testDoc, err := db.Collection(TestsCollection).Get(testID)
	if err != nil {
		return nil, fmt.Errorf("aggregator: %w", err)
	}
	raw, _ := testDoc["params_json"].(string)
	test, err := params.Parse([]byte(raw))
	if err != nil {
		return nil, fmt.Errorf("aggregator: stored params: %w", err)
	}
	prep := &Prepared{Test: test}
	for _, doc := range db.Collection(PagesCollection).FindEq("test_id", testID) {
		page := IntegratedPage{
			ID:        docString(doc, "page_id"),
			TestID:    testID,
			LeftName:  docString(doc, "left"),
			RightName: docString(doc, "right"),
			Kind:      PageKind(docString(doc, "kind")),
			Expected:  questionnaire.Choice(docString(doc, "expected")),
		}
		prep.Pages = append(prep.Pages, page)
	}
	if len(prep.Pages) == 0 {
		return nil, fmt.Errorf("aggregator: test %s has no pages", testID)
	}
	// The test document records how many pages were persisted; a mismatch
	// means the pages collection lost or gained documents behind our back.
	if want, ok := testDoc.Int("page_count"); ok && want != len(prep.Pages) {
		return nil, fmt.Errorf("aggregator: test %s has %d pages, expected %d",
			testID, len(prep.Pages), want)
	}
	return prep, nil
}

func docString(d store.Document, key string) string {
	s, _ := d[key].(string)
	return s
}
