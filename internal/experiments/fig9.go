package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
	"kaleidoscope/internal/webgen"
)

// Fig9Config parameterizes the page-load (uPLT) study of §IV-C: two
// versions of the wiki article with identical above-the-fold completion
// times (both finish at FullMillis) but opposite content orders — version
// A shows the navigation bar first, version B the main text first.
type Fig9Config struct {
	// Workers is the crowd cohort size; default 100.
	Workers int
	// EarlyMillis/FullMillis are the staggered reveal times; defaults
	// 2000/4000 as in the paper.
	EarlyMillis int
	FullMillis  int
	// PageSeed holds article content constant.
	PageSeed int64
}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.Workers == 0 {
		c.Workers = 100
	}
	if c.EarlyMillis == 0 {
		c.EarlyMillis = 2000
	}
	if c.FullMillis == 0 {
		c.FullMillis = 4000
	}
	if c.PageSeed == 0 {
		c.PageSeed = 42
	}
	return c
}

// QuestionReadiness is the paper's uPLT comparison question.
const QuestionReadiness = "Which version of the webpage seems ready to use first?"

// Fig9Result carries the study's raw and quality-controlled splits.
// Version A (nav first) is the LEFT side; version B (text first) the
// RIGHT.
type Fig9Result struct {
	Config Fig9Config
	// Raw and Filtered are the response tallies before and after QC.
	Raw      questionnaire.Tally
	Filtered questionnaire.Tally
	// Comments are the free-text responses collected.
	Comments []string
	Outcome  *core.Outcome
}

// RunFig9 executes the uPLT study.
func RunFig9(cfg Fig9Config, rng *rand.Rand) (*Fig9Result, error) {
	if rng == nil {
		return nil, errors.New("experiments: nil random source")
	}
	cfg = cfg.withDefaults()
	if cfg.EarlyMillis >= cfg.FullMillis {
		return nil, errors.New("experiments: early reveal must precede full reveal")
	}

	site := webgen.WikiArticle(webgen.WikiConfig{Seed: cfg.PageSeed})
	specA := params.PageLoadSpec{Schedule: []params.SelectorTime{
		{Selector: "#navbar", Millis: cfg.EarlyMillis},
		{Selector: "#content", Millis: cfg.FullMillis},
		{Selector: "#infobox", Millis: cfg.FullMillis},
	}}
	specB := params.PageLoadSpec{Schedule: []params.SelectorTime{
		{Selector: "#navbar", Millis: cfg.FullMillis},
		{Selector: "#content", Millis: cfg.EarlyMillis},
		{Selector: "#infobox", Millis: cfg.FullMillis},
	}}
	test := &params.Test{
		TestID:          "uplt-study",
		WebpageNum:      2,
		TestDescription: "Which parts of a webpage matter for user-perceived page load time?",
		ParticipantNum:  cfg.Workers,
		Questions:       []string{QuestionReadiness},
		Webpages: []params.Webpage{
			{WebPath: "wiki-nav-first", WebPageLoad: specA, WebMainFile: "index.html", WebDescription: "navigation bar loads first"},
			{WebPath: "wiki-text-first", WebPageLoad: specB, WebMainFile: "index.html", WebDescription: "main text loads first"},
		},
	}
	pool, err := crowd.TrustedCrowd(cfg.Workers*2, rng)
	if err != nil {
		return nil, err
	}
	study := &core.Study{
		Params: test,
		Sites: map[string]*webgen.Site{
			"wiki-nav-first":  site,
			"wiki-text-first": site.Clone(),
		},
		Answer:      extension.AnswerReadiness(),
		Pool:        pool,
		PaymentUSD:  0.10,
		TrustedOnly: true,
	}
	outcome, err := runStudy(study, rng)
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{Config: cfg, Outcome: outcome}
	for _, sess := range outcome.Sessions {
		for _, r := range sess.Responses {
			res.Raw.Add(r.Choice)
			if r.Comment != "" {
				res.Comments = append(res.Comments, r.Comment)
			}
		}
	}
	for _, sess := range core.KeptSessions(outcome) {
		for _, r := range sess.Responses {
			res.Filtered.Add(r.Choice)
		}
	}
	return res, nil
}

// FormatFig9 renders the result the way the paper's Fig. 9 reads.
func FormatFig9(res *Fig9Result) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — which version seems ready to use first?\n")
	b.WriteString("  (A = navigation bar first, B = main text first; ATF times identical)\n")
	rows := []struct {
		name string
		t    questionnaire.Tally
	}{
		{"Kaleidoscope (raw)", res.Raw},
		{"Kaleidoscope (quality control)", res.Filtered},
	}
	for _, row := range rows {
		total := row.t.Total()
		if total == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-32s A %5.1f%%   Same %5.1f%%   B %5.1f%%  (n=%d",
			row.name,
			100*row.t.Proportion(questionnaire.ChoiceLeft),
			100*row.t.Proportion(questionnaire.ChoiceSame),
			100*row.t.Proportion(questionnaire.ChoiceRight),
			total)
		if lo, hi, err := stats.WilsonInterval(row.t.Right, total, 1.96); err == nil {
			fmt.Fprintf(&b, ", B 95%% CI %.0f-%.0f%%", lo*100, hi*100)
		}
		b.WriteString(")\n")
	}
	b.WriteString("  (paper: raw 46% B; quality control 54% B — text-first wins, stronger after QC)\n")
	if len(res.Comments) > 0 {
		b.WriteString("  sample comments:\n")
		max := len(res.Comments)
		if max > 3 {
			max = 3
		}
		for _, c := range res.Comments[:max] {
			fmt.Fprintf(&b, "    %q\n", c)
		}
	}
	return b.String()
}
