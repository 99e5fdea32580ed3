package aggregator

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kaleidoscope/internal/store"
)

// eachBlobBackend runs fn over a fresh memory-backed and dir-backed blob
// store.
func eachBlobBackend(t *testing.T, fn func(t *testing.T, blobs *store.BlobStore)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { fn(t, store.NewBlobStore()) })
	t.Run("dir", func(t *testing.T) {
		blobs, err := store.OpenBlobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, blobs)
	})
}

// TestPrepareMemoMatchesColdAndSequential: a Prepare whose every version
// the blob store recalls stores the blobs, validators and documents of a
// Prepare on a fresh store and of the sequential reference, byte for byte.
// Its sites are built apart from the warm-up's, so only their bytes match.
func TestPrepareMemoMatchesColdAndSequential(t *testing.T) {
	ref := runPrepare(t, WithSequential())
	cold := runPrepare(t)
	assertRunsEqual(t, "cold", ref, cold)
	eachBlobBackend(t, func(t *testing.T, blobs *store.BlobStore) {
		db := store.OpenMemory()
		agg, err := New(db, blobs)
		if err != nil {
			t.Fatal(err)
		}
		warmup, sites, controls := diffInput()
		warmup.TestID = "warm-up"
		if _, err := agg.Prepare(warmup, sites, controls); err != nil {
			t.Fatal(err)
		}
		test, sites, controls := diffInput()
		prep, err := agg.Prepare(test, sites, controls)
		if err != nil {
			t.Fatal(err)
		}
		// 4 versions and 2 distinct control sides: the warm-up compressed
		// them once each, and the test took all 6 from the memo.
		if reused := blobs.Stats().Reused; reused != 6 {
			t.Errorf("reused %d versions, want 6", reused)
		}
		assertRunsEqual(t, "warm", ref, snapshot(t, db, blobs, prep, test.TestID))
	})
}

// TestPrepareMemoSeesInputChanges: the memo is keyed by content, so a
// changed file of the very same *Site, or a changed replay spec alone,
// compresses again, and what is stored is what a fresh store stores for
// that input. Each Prepare runs 2 compress jobs, one per version (the
// identical-pair control shares the first's); a job the memo does not
// recall compresses.
func TestPrepareMemoSeesInputChanges(t *testing.T) {
	db, blobs := store.OpenMemory(), store.NewBlobStore()
	agg, err := New(db, blobs)
	if err != nil {
		t.Fatal(err)
	}
	test, sites := benchInput()
	test.Webpages, test.WebpageNum = test.Webpages[:2], 2
	prepare := func(id string) prepRun {
		t.Helper()
		test.TestID = id
		prep, err := agg.Prepare(test, sites, nil)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot(t, db, blobs, prep, id)
	}
	expect := func(step string, wantReused int64, got prepRun) {
		t.Helper()
		if reused := blobs.Stats().Reused; reused != wantReused {
			t.Errorf("%s: %d reused in all, want %d", step, reused, wantReused)
		}
		fresh, err := New(store.OpenMemory(), store.NewBlobStore())
		if err != nil {
			t.Fatal(err)
		}
		prep, err := fresh.Prepare(test, sites, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertRunsEqual(t, step, snapshot(t, fresh.db, fresh.blobs, prep, ""), got)
	}

	expect("first", 0, prepare("t1"))
	expect("same input", 2, prepare("t2"))

	// One letter of the title, so the file keeps its length.
	v0 := sites["v0"]
	html := bytes.Clone(v0.HTML())
	at := bytes.Index(html, []byte("<title>")) + len("<title>")
	html[at] ^= 0x20 // flips the letter's case
	v0.Put(v0.MainFile, html)
	expect("one file changed", 3, prepare("t3"))

	test.Webpages[1].WebPageLoad = test.Webpages[0].WebPageLoad
	expect("spec changed", 4, prepare("t4"))
}

// TestPrepareMemoReleasedWithItsTests: a version's memo entry lives as long
// as some stored test uses its payload, and goes with the last of them.
func TestPrepareMemoReleasedWithItsTests(t *testing.T) {
	eachBlobBackend(t, func(t *testing.T, blobs *store.BlobStore) {
		agg, err := New(store.OpenMemory(), blobs)
		if err != nil {
			t.Fatal(err)
		}
		test, sites := benchInput()
		for _, id := range []string{"t1", "t2"} {
			test.TestID = id
			if _, err := agg.Prepare(test, sites, nil); err != nil {
				t.Fatal(err)
			}
		}
		wp := test.Webpages[3]
		input := inputDigest(sites[wp.WebPath], wp.WebPageLoad)
		for _, step := range []struct {
			prefix string
			live   bool
		}{{"t1/", true}, {"t2/", false}} {
			if _, err := blobs.DeletePrefix(step.prefix); err != nil {
				t.Fatal(err)
			}
			if _, ok := blobs.Recall(input); ok != step.live {
				t.Errorf("after deleting %s: Recall hit = %v, want %v", step.prefix, ok, step.live)
			}
		}
		if n := blobs.Stats().UniqueBlobs; n != 0 {
			t.Errorf("%d payloads live with no test stored", n)
		}
	})
}

// TestConcurrentPreparesShareOneStore: aggregators preparing at once over
// one blob store, each twice, so that compressions, recalls and stores of
// the same versions interleave, store what the sequential reference
// stores. Run under -race by make check.
func TestConcurrentPreparesShareOneStore(t *testing.T) {
	ref := runPrepare(t, WithSequential())
	blobs := store.NewBlobStore()
	const preparers = 4
	dbs := make([]*store.DB, preparers)
	preps := make([][]*Prepared, preparers)
	var wg sync.WaitGroup
	for p := range dbs {
		dbs[p] = store.OpenMemory()
		agg, err := New(dbs[p], blobs, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				test, sites, controls := diffInput()
				test.TestID = fmt.Sprintf("c%d-%d", p, round)
				prep, err := agg.Prepare(test, sites, controls)
				if err != nil {
					t.Error(err)
					return
				}
				preps[p] = append(preps[p], prep)
			}
		}()
	}
	wg.Wait()
	// Blobs and validators, keyed without the test id, match the
	// reference's; the documents differ from it only in that id.
	strip := func(run prepRun) (map[string][]byte, map[string]string) {
		data, etags := map[string][]byte{}, map[string]string{}
		for key, b := range run.blobs {
			_, rest, _ := strings.Cut(key, "/")
			data[rest], etags[rest] = b, run.etags[key]
		}
		return data, etags
	}
	wantData, wantETags := strip(ref)
	for p := range preps {
		for round, prep := range preps[p] {
			run := snapshot(t, dbs[p], blobs, prep, prep.Test.TestID)
			data, etags := strip(run)
			if !reflect.DeepEqual(data, wantData) || !reflect.DeepEqual(etags, wantETags) {
				t.Errorf("preparer %d round %d stored other blobs than the reference", p, round)
			}
			if len(run.docs) != len(ref.docs) {
				t.Errorf("preparer %d round %d stored %d documents, want %d", p, round, len(run.docs), len(ref.docs))
			}
		}
	}
}

// TestRePrepareWithFewerVersions: preparing a stored test id again with
// fewer versions replaces it. The pages the new spine lacks lose their
// documents and blobs, the test loads with the new spine, and the payloads
// and memo entries only the dropped pages used are released. Preparing the
// 2-version test once more, unchanged, stores each key's payload again
// under the key that already holds it (the right-hand version's only key
// among them) and keeps every payload and memo entry alive.
func TestRePrepareWithFewerVersions(t *testing.T) {
	for _, mode := range []struct {
		label string
		opts  []Option
	}{{"pipeline", nil}, {"sequential", []Option{WithSequential()}}} {
		t.Run(mode.label, func(t *testing.T) {
			eachBlobBackend(t, func(t *testing.T, blobs *store.BlobStore) {
				db := store.OpenMemory()
				agg, err := New(db, blobs, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				test, sites := benchInput()
				if _, err := agg.Prepare(test, sites, nil); err != nil {
					t.Fatal(err)
				}
				dropped := test.Webpages[2]
				test.Webpages, test.WebpageNum = test.Webpages[:2], 2
				for _, step := range []string{"with 2 versions", "unchanged"} {
					if _, err := agg.Prepare(test, sites, nil); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadPrepared(db, test.TestID)
					if err != nil {
						t.Fatalf("LoadPrepared after re-preparing %s: %v", step, err)
					}
					if len(loaded.Pages) != 2 {
						t.Errorf("%s: loaded %d pages, want 2", step, len(loaded.Pages))
					}
					keys, err := blobs.List(test.TestID + "/")
					if err != nil {
						t.Fatal(err)
					}
					if len(keys) != 6 { // 2 pages x (index + left + right)
						t.Errorf("%s: %d blobs under the test, want 6: %v", step, len(keys), keys)
					}
					// Shell, 2 versions.
					if n := blobs.Stats().UniqueBlobs; n != 3 {
						t.Errorf("%s: %d payloads live, want 3", step, n)
					}
					if _, ok := blobs.Recall(inputDigest(sites[dropped.WebPath], dropped.WebPageLoad)); ok {
						t.Errorf("%s: a dropped version is still recalled", step)
					}
					if mode.opts != nil {
						continue // the reference notes nothing in the memo
					}
					// On the directory backend a hit also reads the
					// version's .cas file back whole.
					for _, wp := range test.Webpages {
						if _, ok := blobs.Recall(inputDigest(sites[wp.WebPath], wp.WebPageLoad)); !ok {
							t.Errorf("%s: kept version %s is not recalled", step, wp.WebPath)
						}
					}
				}
			})
		})
	}
}
