package aggregator

import (
	"fmt"
	"path/filepath"
	"testing"

	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/webgen"
)

// benchInput builds a 6-version test (15 real pairs + 1 control), the
// shape the PR's acceptance benchmark targets.
func benchInput() (*params.Test, map[string]*webgen.Site) {
	const n = 6
	test := &params.Test{
		TestID:          "bench-test",
		WebpageNum:      n,
		TestDescription: "prepare benchmark",
		ParticipantNum:  1,
		Questions:       []string{"q?"},
	}
	sites := make(map[string]*webgen.Site)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("v%d", i)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:     path,
			WebPageLoad: params.PageLoadSpec{UniformMillis: 1000 * (i + 1)},
			WebMainFile: "index.html",
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: int64(i + 1), FontSizePt: 10 + i})
	}
	return test, sites
}

// shapeVariants is the size of the content corpus the end-to-end benchmark
// draws its versions from.
const shapeVariants = 32

// shapeCorpus builds the end-to-end benchmark's content corpus: wiki
// articles differing in text and in font size.
func shapeCorpus() []*webgen.Site {
	variants := make([]*webgen.Site, shapeVariants)
	for i := range variants {
		variants[i] = webgen.WikiArticle(webgen.WikiConfig{Seed: int64(i + 1), FontSizePt: 10 + 2*(i%7)})
	}
	return variants
}

// shapeTest is the end-to-end benchmark's test: two versions of the corpus,
// one question, a uniform 1 s replay. Test n walks the corpus two variants
// at a time.
func shapeTest(variants []*webgen.Site, n int) (*params.Test, map[string]*webgen.Site) {
	test := &params.Test{
		TestID:          fmt.Sprintf("shape-%d", n),
		WebpageNum:      2,
		TestDescription: "bench-shaped study",
		ParticipantNum:  1,
		Questions:       []string{"q?"},
	}
	sites := make(map[string]*webgen.Site)
	for _, v := range []int{(2 * n) % len(variants), (2*n + 1) % len(variants)} {
		path := fmt.Sprintf("v%02d", v)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:     path,
			WebPageLoad: params.PageLoadSpec{UniformMillis: 1000},
			WebMainFile: "index.html",
		})
		sites[path] = variants[v]
	}
	return test, sites
}

// benchPrepare times full Prepare runs over fresh in-memory storage.
func benchPrepare(b *testing.B, opts ...Option) {
	test, sites := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := store.OpenMemory()
		blobs := store.NewBlobStore()
		agg, err := New(db, blobs, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agg.Prepare(test, sites, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepareSequential(b *testing.B) { benchPrepare(b, WithSequential()) }

func BenchmarkPrepareParallel(b *testing.B) { benchPrepare(b) }

func BenchmarkPrepareParallelWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchPrepare(b, WithWorkers(w))
		})
	}
}

// BenchmarkPrepareBenchShape times Prepare as the end-to-end benchmark runs
// it: one Aggregator over one store preparing test after test, each two
// versions drawn from a 32-variant corpus. Untimed warm-up tests store
// every variant first, so each timed op recalls both of its versions from
// the blob store's memo, as all but the script's first 16 tests do: this
// is warm set-up.
func BenchmarkPrepareBenchShape(b *testing.B) {
	benchShapeWarm(b, store.OpenMemory(), store.NewBlobStore())
}

// BenchmarkPrepareBenchShapeDir is BenchmarkPrepareBenchShape over a
// directory-backed document store and blob store, opened as `kscope
// prepare` opens them: the warm set-up of the end-to-end benchmark's
// durable workloads. A recalled version is read back from its .cas file.
func BenchmarkPrepareBenchShapeDir(b *testing.B) {
	dir := b.TempDir()
	db, err := store.Open(filepath.Join(dir, "db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	blobs, err := store.OpenBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		b.Fatal(err)
	}
	benchShapeWarm(b, db, blobs)
}

// benchShapeWarm stores every corpus variant with untimed warm-up tests,
// then times bench-shaped Prepares over db and blobs.
func benchShapeWarm(b *testing.B, db *store.DB, blobs *store.BlobStore) {
	variants := shapeCorpus()
	agg, err := New(db, blobs)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < shapeVariants/2; n++ {
		test, sites := shapeTest(variants, n)
		test.TestID = fmt.Sprintf("warm-up-%d", n)
		if _, err := agg.Prepare(test, sites, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		test, sites := shapeTest(variants, i)
		if _, err := agg.Prepare(test, sites, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareBenchShapeCold is BenchmarkPrepareBenchShape over a fresh
// store every op, built untimed, so that no version is recalled from the
// blob store's memo and each op compresses both of its versions.
func BenchmarkPrepareBenchShapeCold(b *testing.B) {
	variants := shapeCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agg, err := New(store.OpenMemory(), store.NewBlobStore())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		test, sites := shapeTest(variants, i)
		if _, err := agg.Prepare(test, sites, nil); err != nil {
			b.Fatal(err)
		}
	}
}
