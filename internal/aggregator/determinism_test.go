package aggregator

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// diffInput builds a fresh multi-version test with two extra control pairs
// (one of them sharing its sites with the other, to exercise compression
// dedup). Inputs are reconstructed per call so no state leaks between
// pipeline runs.
func diffInput() (*params.Test, map[string]*webgen.Site, []ControlPair) {
	test := &params.Test{
		TestID:          "diff-test",
		WebpageNum:      4,
		TestDescription: "differential determinism input",
		ParticipantNum:  1,
		Questions:       []string{"q?"},
	}
	sites := make(map[string]*webgen.Site)
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("v%d", i)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:     path,
			WebPageLoad: params.PageLoadSpec{UniformMillis: 500 * (i + 1)},
			WebMainFile: "index.html",
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: int64(i + 1), FontSizePt: 10 + 2*i})
	}
	tiny := webgen.WikiArticle(webgen.WikiConfig{Seed: 7, FontSizePt: 4})
	normal := webgen.WikiArticle(webgen.WikiConfig{Seed: 7, FontSizePt: 12})
	controls := []ControlPair{
		{Name: "extreme", Left: tiny, Right: normal, Expected: questionnaire.ChoiceRight},
		// Same underlying sites again: the pipeline must compress each side
		// once, and the output must not depend on that sharing.
		{Name: "extreme-repeat", Left: tiny, Right: normal, Expected: questionnaire.ChoiceRight},
	}
	return test, sites, controls
}

// prepRun captures everything observable about one Prepare execution.
type prepRun struct {
	pages []IntegratedPage
	blobs map[string][]byte         // logical key -> bytes
	etags map[string]string         // logical key -> served validator
	docs  map[string]store.Document // collection/id -> document
}

// runPrepare executes Prepare over fresh storage with the given aggregator
// options and snapshots the result.
func runPrepare(t *testing.T, opts ...Option) prepRun {
	t.Helper()
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := New(db, blobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	test, sites, controls := diffInput()
	prep, err := agg.Prepare(test, sites, controls)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return snapshot(t, db, blobs, prep, "")
}

// snapshot captures what a store holds after prep: the page list, every
// blob with its served validator, and every test and page document. A
// non-empty scope narrows it to that test id's blob folder, test document
// and page documents, for stores other tests share; runPrepare's fresh
// store is captured whole, so a stray blob or document shows too.
func snapshot(t *testing.T, db *store.DB, blobs *store.BlobStore, prep *Prepared, scope string) prepRun {
	t.Helper()
	run := prepRun{
		pages: append([]IntegratedPage(nil), prep.Pages...),
		blobs: make(map[string][]byte),
		etags: make(map[string]string),
		docs:  make(map[string]store.Document),
	}
	prefix := ""
	if scope != "" {
		prefix = scope + "/"
	}
	keys, err := blobs.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		data, err := blobs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		view, err := blobs.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		view.Close()
		run.blobs[key] = data
		run.etags[key] = view.ETag
	}
	for _, coll := range []string{TestsCollection, PagesCollection} {
		for _, doc := range db.Collection(coll).Find(func(doc store.Document) bool {
			return scope == "" || doc.ID() == scope || docString(doc, "test_id") == scope
		}) {
			run.docs[coll+"/"+doc.ID()] = doc
		}
	}
	return run
}

// assertRunsEqual requires two Prepare executions to be observationally
// identical: same page order and IDs, byte-identical blobs under the same
// keys, identical stored documents.
func assertRunsEqual(t *testing.T, label string, want, got prepRun) {
	t.Helper()
	if !reflect.DeepEqual(want.pages, got.pages) {
		t.Errorf("%s: Pages diverge:\nwant %+v\ngot  %+v", label, want.pages, got.pages)
	}
	if len(want.blobs) != len(got.blobs) {
		t.Errorf("%s: blob count %d, want %d", label, len(got.blobs), len(want.blobs))
	}
	for key, data := range want.blobs {
		other, ok := got.blobs[key]
		if !ok {
			t.Errorf("%s: blob %s missing", label, key)
			continue
		}
		if !bytes.Equal(data, other) {
			t.Errorf("%s: blob %s differs (%d vs %d bytes)", label, key, len(data), len(other))
		}
	}
	if !reflect.DeepEqual(want.etags, got.etags) {
		t.Errorf("%s: validators diverge", label)
	}
	if !reflect.DeepEqual(want.docs, got.docs) {
		t.Errorf("%s: stored documents diverge", label)
	}
}

// TestPrepareDifferentialDeterminism is the pipeline's core contract: the
// sequential reference path and the staged pipeline at pool sizes 1, 2,
// and 8 all produce byte-identical blobs, identical page order/IDs, and
// identical store documents. Run under -race via make check.
func TestPrepareDifferentialDeterminism(t *testing.T) {
	ref := runPrepare(t, WithSequential())
	for _, workers := range []int{1, 2, 8} {
		got := runPrepare(t, WithWorkers(workers))
		assertRunsEqual(t, fmt.Sprintf("workers=%d", workers), ref, got)
	}
}

// TestPrepareDifferentialDirBackend checks the pipeline over the
// dir-backed blob store (hard-linked CAS layout) against the in-memory
// sequential reference.
func TestPrepareDifferentialDirBackend(t *testing.T) {
	ref := runPrepare(t, WithSequential())

	db := store.OpenMemory()
	blobs, err := store.OpenBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := New(db, blobs, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	test, sites, controls := diffInput()
	prep, err := agg.Prepare(test, sites, controls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.pages, prep.Pages) {
		t.Errorf("dir-backend Pages diverge")
	}
	keys, err := blobs.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(ref.blobs) {
		t.Fatalf("dir-backend blob count = %d, want %d", len(keys), len(ref.blobs))
	}
	for _, key := range keys {
		data, err := blobs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, ref.blobs[key]) {
			t.Errorf("dir-backend blob %s differs", key)
		}
	}
}

// TestPrepareFirstErrorDeterminism: when several pipeline jobs fail, the
// reported error must be the first in pipeline order — the same error the
// sequential path hits — for every pool size, and the failed Prepare must
// leave no partial state behind.
func TestPrepareFirstErrorDeterminism(t *testing.T) {
	build := func() (*params.Test, map[string]*webgen.Site, []ControlPair) {
		test, sites, controls := diffInput()
		// Versions 1 and 3 both fail to compress; control sides fail too.
		sites["v1"] = nil
		sites["v3"] = nil
		controls[0].Left = nil
		return test, sites, controls
	}
	var wantErr string
	for _, mode := range []struct {
		label string
		opts  []Option
	}{
		{"sequential", []Option{WithSequential()}},
		{"workers=1", []Option{WithWorkers(1)}},
		{"workers=2", []Option{WithWorkers(2)}},
		{"workers=8", []Option{WithWorkers(8)}},
	} {
		db := store.OpenMemory()
		blobs := store.NewBlobStore()
		agg, err := New(db, blobs, mode.opts...)
		if err != nil {
			t.Fatal(err)
		}
		test, sites, controls := build()
		_, err = agg.Prepare(test, sites, controls)
		if err == nil {
			t.Fatalf("%s: Prepare succeeded with broken input", mode.label)
		}
		if !strings.Contains(err.Error(), `version "v1"`) {
			t.Errorf("%s: err = %v, want the v1 failure (first in pipeline order)", mode.label, err)
		}
		if wantErr == "" {
			wantErr = err.Error()
		} else if err.Error() != wantErr {
			t.Errorf("%s: err = %q, want %q", mode.label, err, wantErr)
		}
		// Full cleanup: no blobs, no documents.
		if keys, _ := blobs.List(test.TestID + "/"); len(keys) != 0 {
			t.Errorf("%s: %d blobs left after failed Prepare", mode.label, len(keys))
		}
		if n := db.Collection(TestsCollection).Count(); n != 0 {
			t.Errorf("%s: %d test docs left after failed Prepare", mode.label, n)
		}
		if n := db.Collection(PagesCollection).Count(); n != 0 {
			t.Errorf("%s: %d page docs left after failed Prepare", mode.label, n)
		}
	}
}

// TestPrepareDedupRegression pins the fix for the identical-pair control's
// double store and the repeated-control double compression: with 3
// versions and no extra controls, the 4 integrated pages write 12 logical
// blobs backed by exactly 4 distinct payloads (1 shared page shell, 3
// compressed versions).
func TestPrepareDedupRegression(t *testing.T) {
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test, sites := fontTestInput(t)
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(prep.Pages))
	}
	keys, err := blobs.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 12 { // 4 pages x (index + left + right)
		t.Fatalf("logical blobs = %d, want 12", len(keys))
	}
	stats := blobs.Stats()
	if stats.UniqueBlobs != 4 {
		t.Errorf("unique payloads = %d, want 4 (shell, 3 versions)", stats.UniqueBlobs)
	}
	if stats.DedupHits != 8 {
		t.Errorf("dedup hits = %d, want 8", stats.DedupHits)
	}
	// The identical-pair control's two sides are one stored payload.
	left, err := blobs.Get(test.TestID + "/control-same/left.html")
	if err != nil {
		t.Fatal(err)
	}
	right, err := blobs.Get(test.TestID + "/control-same/right.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(left, right) {
		t.Error("identical-pair control sides differ")
	}
}

// TestPrepareCompressionDedup: extra controls that reuse already-seen
// sites must be compressed once. A cold Prepare recalls nothing, so it
// compresses every job; preparing the same input again recalls every job,
// so the blob store's Reused count is the number of jobs.
func TestPrepareCompressionDedup(t *testing.T) {
	db := store.OpenMemory()
	blobs := store.NewBlobStore()
	agg, err := New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test, sites, controls := diffInput()
	if _, err := agg.Prepare(test, sites, controls); err != nil {
		t.Fatal(err)
	}
	cold := blobs.Stats()
	if cold.Reused != 0 || cold.DedupHits <= 0 {
		t.Errorf("cold Prepare: %d reused, %d dedup hits; want 0 and some", cold.Reused, cold.DedupHits)
	}
	test.TestID = "again"
	if _, err := agg.Prepare(test, sites, controls); err != nil {
		t.Fatal(err)
	}
	// 4 versions + 2 distinct control sides; the repeated control pair
	// adds no compress work.
	if got := blobs.Stats().Reused; got != 6 {
		t.Errorf("compress jobs = %d, want 6 (repeated controls deduped)", got)
	}
}
