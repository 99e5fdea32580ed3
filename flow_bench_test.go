package kaleidoscope

import (
	"math/rand"
	"testing"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// benchTwoVersionTest builds the standard 2-version font test used by the
// pipeline micro-benches.
func benchTwoVersionTest() (*params.Test, map[string]*webgen.Site) {
	test := &params.Test{
		TestID:          "bench-pipeline",
		WebpageNum:      2,
		TestDescription: "pipeline bench",
		ParticipantNum:  1,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "a", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html"},
			{WebPath: "b", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html"},
		},
	}
	sites := map[string]*webgen.Site{
		"a": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 12}),
		"b": webgen.WikiArticle(webgen.WikiConfig{Seed: 1, FontSizePt: 18}),
	}
	return test, sites
}

// BenchmarkFig1IntegratedPage measures the aggregator building the Fig. 1
// artifact: two inlined versions composed into a side-by-side page.
func BenchmarkFig1IntegratedPage(b *testing.B) {
	test, sites := benchTwoVersionTest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := store.OpenMemory()
		blobs := store.NewBlobStore()
		agg, err := aggregator.New(db, blobs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agg.Prepare(test, sites, nil); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig1", "Fig. 1 — integrated side-by-side page: built by the aggregator bench; open one with examples/expandbutton -out")
}

// BenchmarkFig3ExtensionFlow measures one participant's complete Fig. 3
// test flow: download every integrated page over the (in-process) HTTP
// API, replay both sides, answer, upload.
func BenchmarkFig3ExtensionFlow(b *testing.B) {
	test, sites := benchTwoVersionTest()
	bed, err := testbed.Start(testbed.Topology{}, testbed.Run{})
	if err != nil {
		b.Fatal(err)
	}
	defer bed.Close()
	if _, err := bed.Prepare(test, sites, nil); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	pool, err := crowd.TrustedCrowd(1, rng)
	if err != nil {
		b.Fatal(err)
	}
	client, err := extension.NewClient(bed.URLs[0], bed.Client)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &extension.Runner{
			Client: client,
			Worker: pool.Workers[0],
			Answer: extension.AnswerFontSize(),
			RNG:    rng,
		}
		if _, _, err := runner.Run(test.TestID); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig3", "Fig. 3 — extension test flow: one full participant session benchmarked end-to-end")
}

// BenchmarkEndToEndStudy measures a complete small study: the number the
// paper cares about is wall-clock feasibility of simulation at scale.
func BenchmarkEndToEndStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(benchSeed))
		test, sites := benchTwoVersionTest()
		test.ParticipantNum = 10
		pool, err := crowd.TrustedCrowd(20, rng)
		if err != nil {
			b.Fatal(err)
		}
		bed, err := testbed.Start(testbed.Topology{}, testbed.Run{})
		if err != nil {
			b.Fatal(err)
		}
		_, err = core.RunStudy(bed, &core.Study{
			Params:      test,
			Sites:       sites,
			Answer:      extension.AnswerFontSize(),
			Pool:        pool,
			TrustedOnly: true,
		}, rng)
		bed.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
