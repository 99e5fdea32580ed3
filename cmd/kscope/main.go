// Command kscope is Kaleidoscope's experimenter CLI: generate test
// webpages, validate test parameters, prepare a test into storage, and run
// fully simulated studies.
//
// Usage:
//
//	kscope gen -kind wiki|group -out DIR [-font PT] [-variant] [-seed N]
//	kscope params-example
//	kscope validate -params FILE
//	kscope prepare -params FILE -sites DIR -store DIR
//	kscope simulate -params FILE -sites DIR [-seed N] [-trusted] [-question KIND]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/store"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kscope:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "params-example":
		return cmdParamsExample()
	case "validate":
		return cmdValidate(args[1:])
	case "prepare":
		return cmdPrepare(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "results":
		return cmdResults(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `kscope — Kaleidoscope experimenter CLI

subcommands:
  gen             generate a synthetic test webpage folder
  params-example  print an example Table-I parameter document
  validate        validate a parameter document
  prepare         aggregate a test into persistent storage
  simulate        run a fully simulated study end-to-end on an in-process node
  results         conclude results for a test from stored sessions
`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "wiki", "page kind: wiki or group")
	out := fs.String("out", "", "output directory (required)")
	font := fs.Int("font", 14, "main-text font size in points (wiki)")
	variant := fs.Bool("variant", false, "generate the B version (group)")
	seed := fs.Int64("seed", 42, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var site *webgen.Site
	switch *kind {
	case "wiki":
		site = webgen.WikiArticle(webgen.WikiConfig{Seed: *seed, FontSizePt: *font})
	case "group":
		site = webgen.GroupPage(webgen.GroupConfig{Seed: *seed, ExpandVariant: *variant})
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	if err := site.WriteDir(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d files (%d bytes) to %s\n", len(site.Files), site.TotalBytes(), *out)
	return nil
}

func cmdParamsExample() error {
	data, err := exampleParamsJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// exampleParamsJSON renders the Table-I example document.
func exampleParamsJSON() ([]byte, error) {
	example := &params.Test{
		TestID:          "font-size-study",
		WebpageNum:      2,
		TestDescription: "What is the best font size for online reading?",
		ParticipantNum:  100,
		Questions:       []string{"Which webpage's font size is more suitable (easier) for reading?"},
		Webpages: []params.Webpage{
			{
				WebPath:        "wiki-12pt",
				WebPageLoad:    params.PageLoadSpec{UniformMillis: 3000},
				WebMainFile:    "index.html",
				WebDescription: "12pt main text",
			},
			{
				WebPath: "wiki-14pt",
				WebPageLoad: params.PageLoadSpec{Schedule: []params.SelectorTime{
					{Selector: "#navbar", Millis: 1000},
					{Selector: "#content", Millis: 3000},
				}},
				WebMainFile:    "index.html",
				WebDescription: "14pt main text, staggered load",
			},
		},
	}
	return example.Encode()
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	paramsPath := fs.String("params", "", "parameter document (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	test, err := loadParams(*paramsPath)
	if err != nil {
		return err
	}
	fmt.Printf("valid: test %q, %d versions, %d integrated pages, %d participants\n",
		test.TestID, test.WebpageNum, test.PairCount(), test.ParticipantNum)
	return nil
}

func loadParams(path string) (*params.Test, error) {
	if path == "" {
		return nil, fmt.Errorf("-params is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return params.Parse(data)
}

// loadSites loads every version folder named by the test parameters from
// sitesDir.
func loadSites(test *params.Test, sitesDir string) (map[string]*webgen.Site, error) {
	sites := make(map[string]*webgen.Site, len(test.Webpages))
	for _, wp := range test.Webpages {
		site, err := webgen.LoadDir(filepath.Join(sitesDir, wp.WebPath), wp.WebMainFile)
		if err != nil {
			return nil, fmt.Errorf("version %q: %w", wp.WebPath, err)
		}
		sites[wp.WebPath] = site
	}
	return sites, nil
}

func cmdPrepare(args []string) error {
	fs := flag.NewFlagSet("prepare", flag.ContinueOnError)
	paramsPath := fs.String("params", "", "parameter document (required)")
	sitesDir := fs.String("sites", "", "directory of version folders (required)")
	storeDir := fs.String("store", "", "storage directory (required)")
	workers := fs.Int("prepare-workers", 0, "preparation pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sitesDir == "" || *storeDir == "" {
		return fmt.Errorf("prepare: -sites and -store are required")
	}
	test, err := loadParams(*paramsPath)
	if err != nil {
		return err
	}
	sites, err := loadSites(test, *sitesDir)
	if err != nil {
		return err
	}
	db, err := store.Open(filepath.Join(*storeDir, "db"))
	if err != nil {
		return err
	}
	defer db.Close()
	blobs, err := store.OpenBlobStore(filepath.Join(*storeDir, "blobs"))
	if err != nil {
		return err
	}
	agg, err := aggregator.New(db, blobs, aggregator.WithWorkers(*workers))
	if err != nil {
		return err
	}
	prep, err := agg.Prepare(test, sites, nil)
	if err != nil {
		return err
	}
	stats := blobs.Stats()
	fmt.Printf("prepared test %q: %d real pages, %d control pages (%d blobs deduped, %d bytes saved) -> %s\n",
		test.TestID, len(prep.RealPages()), len(prep.ControlPages()),
		stats.DedupHits, stats.BytesSaved, *storeDir)
	fmt.Println("serve it with: kscope-server -store", *storeDir)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	paramsPath := fs.String("params", "", "parameter document (required)")
	sitesDir := fs.String("sites", "", "directory of version folders (required)")
	seed := fs.Int64("seed", 1, "simulation seed")
	trusted := fs.Bool("trusted", true, "recruit only historically-trustworthy workers")
	question := fs.String("question", "font", "perception model: font, visibility, readiness")
	concurrency := fs.Int("concurrency", 1, "parallel participant sessions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sitesDir == "" {
		return fmt.Errorf("simulate: -sites is required")
	}
	test, err := loadParams(*paramsPath)
	if err != nil {
		return err
	}
	sites, err := loadSites(test, *sitesDir)
	if err != nil {
		return err
	}
	var answer extension.AnswerFunc
	switch *question {
	case "font":
		answer = extension.AnswerFontSize()
	case "visibility":
		answer = extension.AnswerButtonVisibility()
	case "readiness":
		answer = extension.AnswerReadiness()
	default:
		return fmt.Errorf("simulate: unknown question model %q", *question)
	}

	rng := rand.New(rand.NewSource(*seed))
	pool, err := crowd.TrustedCrowd(test.ParticipantNum*2, rng)
	if err != nil {
		return err
	}
	bed, err := testbed.Start(testbed.Topology{}, testbed.Run{})
	if err != nil {
		return err
	}
	defer bed.Close()
	outcome, err := core.RunStudy(bed, &core.Study{
		Params:      test,
		Sites:       sites,
		Answer:      answer,
		Pool:        pool,
		TrustedOnly: *trusted,
		Concurrency: *concurrency,
	}, rng)
	if err != nil {
		return err
	}

	fmt.Printf("test %q: %d participants recruited in %s ($%.2f)\n",
		test.TestID, len(outcome.Sessions),
		outcome.Recruitment.Completed.Round(time.Minute),
		outcome.Recruitment.TotalCostUSD)
	fmt.Printf("quality control kept %d, dropped %d\n\n",
		outcome.Filtered.Workers, outcome.Filtered.DroppedWorkers)
	fmt.Println("results (quality-controlled):")
	for _, page := range outcome.Filtered.Pages {
		if page.Kind != aggregator.KindReal {
			continue
		}
		t := page.Tally
		fmt.Printf("  %s (%s vs %s): left %d, same %d, right %d",
			page.PageID, page.LeftName, page.RightName, t.Left, t.Same, t.Right)
		if winner, unique := t.Winner(); unique {
			switch winner {
			case questionnaire.ChoiceLeft:
				fmt.Printf("  -> %s wins", page.LeftName)
			case questionnaire.ChoiceRight:
				fmt.Printf("  -> %s wins", page.RightName)
			default:
				fmt.Printf("  -> no clear preference")
			}
		}
		fmt.Println()
	}
	return nil
}

func cmdResults(args []string) error {
	fs := flag.NewFlagSet("results", flag.ContinueOnError)
	storeDir := fs.String("store", "", "storage directory (required)")
	testID := fs.String("test", "", "test id (required)")
	qc := fs.Bool("quality", true, "apply quality control")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" || *testID == "" {
		return fmt.Errorf("results: -store and -test are required")
	}
	db, err := store.Open(filepath.Join(*storeDir, "db"))
	if err != nil {
		return err
	}
	defer db.Close()
	blobs, err := store.OpenBlobStore(filepath.Join(*storeDir, "blobs"))
	if err != nil {
		return err
	}
	srv, err := server.New(db, blobs)
	if err != nil {
		return err
	}
	res, err := srv.ConcludeScratch(*testID, *qc)
	if err != nil {
		return err
	}
	fmt.Printf("test %q: %d workers considered", res.TestID, res.Workers)
	if res.Filtered {
		fmt.Printf(" (%d dropped by quality control)", res.DroppedWorkers)
	}
	fmt.Println()
	for _, page := range res.Pages {
		fmt.Printf("  %-14s [%s] %s vs %s: left %d, same %d, right %d\n",
			page.PageID, page.Kind, page.LeftName, page.RightName,
			page.Tally.Left, page.Tally.Same, page.Tally.Right)
	}
	return nil
}
