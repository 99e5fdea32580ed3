// Quickstart: the smallest complete Kaleidoscope study.
//
// Two versions of a text-heavy article — 12pt vs 18pt main text — are
// aggregated into a side-by-side integrated webpage, 20 simulated
// crowd workers run the browser-extension flow against the core server's
// HTTP API — one in-process node, the assembly kscope-server runs — and the
// raw and quality-controlled tallies it serves are printed.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(1))

	// 1. The experimenter's input: two page versions...
	sites := map[string]*webgen.Site{
		"article-12pt": webgen.WikiArticle(webgen.WikiConfig{Seed: 7, FontSizePt: 12}),
		"article-18pt": webgen.WikiArticle(webgen.WikiConfig{Seed: 7, FontSizePt: 18}),
	}
	// ...and a Table-I parameter document.
	test := &params.Test{
		TestID:          "quickstart",
		WebpageNum:      2,
		TestDescription: "Which font size reads better?",
		ParticipantNum:  20,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{WebPath: "article-12pt", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html"},
			{WebPath: "article-18pt", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html"},
		},
	}

	// 2. A crowd to recruit from (historically-trustworthy tier).
	pool, err := crowd.TrustedCrowd(60, rng)
	if err != nil {
		return err
	}

	// 3. Run the whole pipeline on one node: aggregate, post, recruit,
	// extension flows over HTTP, read the served results.
	bed, err := testbed.Start(testbed.Topology{}, testbed.Run{})
	if err != nil {
		return err
	}
	defer bed.Close()
	outcome, err := core.RunStudy(bed, &core.Study{
		Params:      test,
		Sites:       sites,
		Answer:      extension.AnswerFontSize(),
		Pool:        pool,
		TrustedOnly: true,
	}, rng)
	if err != nil {
		return err
	}

	// 4. Read the results.
	fmt.Printf("recruited %d workers in %s for $%.2f\n",
		len(outcome.Sessions),
		outcome.Recruitment.Completed.Round(time.Minute),
		outcome.Recruitment.TotalCostUSD)
	for _, page := range outcome.Raw.Pages {
		if page.Kind != "real" {
			continue
		}
		fmt.Printf("raw:      %s vs %s -> left %d, same %d, right %d\n",
			page.LeftName, page.RightName, page.Tally.Left, page.Tally.Same, page.Tally.Right)
	}
	for _, page := range outcome.Filtered.Pages {
		if page.Kind != "real" {
			continue
		}
		fmt.Printf("after QC: %s vs %s -> left %d, same %d, right %d  (%d workers dropped)\n",
			page.LeftName, page.RightName, page.Tally.Left, page.Tally.Same, page.Tally.Right,
			outcome.Filtered.DroppedWorkers)
	}
	return nil
}
