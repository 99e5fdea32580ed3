package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kaleidoscope/internal/abtest"
	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/stats"
	"kaleidoscope/internal/webgen"
)

// ExpandButtonConfig parameterizes the paper's §IV-B study: the research-
// group landing page's Expand button, tested via Kaleidoscope and via
// classic A/B testing over the same two versions (Fig. 6).
type ExpandButtonConfig struct {
	// KaleidoscopeWorkers is the crowd cohort size; default 100.
	KaleidoscopeWorkers int
	// AB is the A/B campaign; default abtest.PaperConfig().
	AB abtest.Config
	// PageSeed holds page content constant across versions.
	PageSeed int64
}

func (c ExpandButtonConfig) withDefaults() ExpandButtonConfig {
	if c.KaleidoscopeWorkers == 0 {
		c.KaleidoscopeWorkers = 100
	}
	if c.AB == (abtest.Config{}) {
		c.AB = abtest.PaperConfig()
	}
	if c.PageSeed == 0 {
		c.PageSeed = 7
	}
	return c
}

// The three questions of the paper's §IV-B (Fig. 8).
const (
	QuestionAppeal     = "Which webpage is graphically more appealing?"
	QuestionButtonLook = "Which version of the 'Expand' button looks better?"
	QuestionVisibility = "Which version of the 'Expand' button is more visible?"
)

// ExpandButtonResult carries Figs. 7(a), 7(b), 7(c), and 8.
type ExpandButtonResult struct {
	Config ExpandButtonConfig

	// Fig. 7(a): recruitment speed.
	KaleidoscopeDuration time.Duration
	ABDuration           time.Duration
	Speedup              float64
	KaleidoscopeArrivals []crowd.ArrivalPoint
	ABArrivals           []abtest.ArrivalPoint

	// Fig. 7(b): A/B campaign outcome.
	ABCounts       abtest.Counts
	ABSignificance stats.TwoProportionResult
	ABCurveA       []abtest.CumulativePoint
	ABCurveB       []abtest.CumulativePoint
	// ABSignificantFraction is the share of replicate 100-visitor A/B
	// campaigns reaching two-sided significance at 95% — the paper's
	// point is that this is rarely achieved at the observed effect size.
	ABReplicates          int
	ABSignificantFraction float64

	// Fig. 7(c) + Fig. 8: Kaleidoscope tallies per question (A original
	// page is the LEFT side; B variant is the RIGHT side).
	Tallies map[string]questionnaire.Tally
	// VisibilitySignificance is question C's two-proportion test.
	VisibilitySignificance stats.TwoProportionResult

	// Outcome exposes the Kaleidoscope run.
	Outcome *core.Outcome
}

// RunExpandButton runs both pipelines over the same page versions.
func RunExpandButton(cfg ExpandButtonConfig, rng *rand.Rand) (*ExpandButtonResult, error) {
	if rng == nil {
		return nil, errors.New("experiments: nil random source")
	}
	cfg = cfg.withDefaults()
	res := &ExpandButtonResult{Config: cfg, Tallies: make(map[string]questionnaire.Tally)}

	// The two versions of Fig. 6.
	groupCfg := webgen.GroupConfig{Seed: cfg.PageSeed}
	siteA, siteB := webgen.GroupPageVersions(groupCfg)

	// --- Kaleidoscope arm ---
	test := &params.Test{
		TestID:          "expand-button",
		WebpageNum:      2,
		TestDescription: "Evaluate a new 'Expand' button design on a research-group landing page",
		ParticipantNum:  cfg.KaleidoscopeWorkers,
		Questions:       []string{QuestionAppeal, QuestionButtonLook, QuestionVisibility},
		Webpages: []params.Webpage{
			{WebPath: "group-a", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html", WebDescription: "original"},
			{WebPath: "group-b", WebPageLoad: params.PageLoadSpec{UniformMillis: 3000}, WebMainFile: "index.html", WebDescription: "variant"},
		},
	}
	pool, err := crowd.TrustedCrowd(cfg.KaleidoscopeWorkers*2, rng)
	if err != nil {
		return nil, err
	}
	answer := extension.AnswerByQuestion(map[string]extension.AnswerFunc{
		"graphically more appealing": extension.AnswerOverallAppeal(),
		"looks better":               extension.AnswerButtonLooks(),
		"more visible":               extension.AnswerButtonVisibility(),
	}, extension.AnswerOverallAppeal())
	study := &core.Study{
		Params:      test,
		Sites:       map[string]*webgen.Site{"group-a": siteA, "group-b": siteB},
		Answer:      answer,
		Pool:        pool,
		PaymentUSD:  0.10,
		TrustedOnly: true,
	}
	outcome, err := runStudy(study, rng)
	if err != nil {
		return nil, err
	}
	res.Outcome = outcome
	res.KaleidoscopeDuration = outcome.Recruitment.Completed
	res.KaleidoscopeArrivals = outcome.Recruitment.ArrivalCurve()

	// Per-question tallies over the single real pair (pair-0-1).
	questionIDs := map[string]string{
		"q0": QuestionAppeal,
		"q1": QuestionButtonLook,
		"q2": QuestionVisibility,
	}
	for _, sess := range outcome.Sessions {
		for _, r := range sess.Responses {
			q, ok := questionIDs[r.QuestionID]
			if !ok {
				continue
			}
			t := res.Tallies[q]
			t.Add(r.Choice)
			res.Tallies[q] = t
		}
	}
	visTally := res.Tallies[QuestionVisibility]
	res.VisibilitySignificance, err = core.PreferenceSignificance(visTally)
	if err != nil {
		return nil, err
	}

	// --- A/B arm ---
	ab, err := abtest.Run(cfg.AB, rng)
	if err != nil {
		return nil, err
	}
	res.ABDuration = ab.Duration
	res.ABArrivals = ab.ArrivalCurve()
	res.ABCounts = ab.Counts()
	res.ABSignificance, err = ab.Significance()
	if err != nil {
		return nil, err
	}
	res.ABCurveA = ab.ClickCurve(abtest.VersionA)
	res.ABCurveB = ab.ClickCurve(abtest.VersionB)

	// Replicate campaigns: how often does n=100 reach significance at all?
	const replicates = 25
	significant := 0
	for i := 0; i < replicates; i++ {
		rep, err := abtest.Run(cfg.AB, rng)
		if err != nil {
			return nil, err
		}
		sig, err := rep.Significance()
		if err != nil {
			return nil, err
		}
		if sig.Significant(0.05) {
			significant++
		}
	}
	res.ABReplicates = replicates
	res.ABSignificantFraction = float64(significant) / float64(replicates)

	res.Speedup = float64(res.ABDuration) / float64(res.KaleidoscopeDuration)
	return res, nil
}

// FormatFig7a renders the recruitment comparison.
func FormatFig7a(res *ExpandButtonResult) string {
	var b strings.Builder
	b.WriteString("Fig. 7(a) — time to recruit the full cohort\n")
	fmt.Fprintf(&b, "  Kaleidoscope: %d testers in %s\n",
		len(res.KaleidoscopeArrivals), res.KaleidoscopeDuration.Round(time.Minute))
	fmt.Fprintf(&b, "  A/B testing:  %d visitors in %s\n",
		len(res.ABArrivals), res.ABDuration.Round(time.Hour))
	fmt.Fprintf(&b, "  speedup: %.1fx (paper reports ~12x)\n", res.Speedup)
	// Milestone rows every 25 testers.
	b.WriteString("  cumulative testers  kaleidoscope      a/b\n")
	for _, milestone := range []int{25, 50, 75, 100} {
		k := elapsedAt(res.KaleidoscopeArrivals, milestone)
		a := abElapsedAt(res.ABArrivals, milestone)
		if k < 0 || a < 0 {
			continue
		}
		fmt.Fprintf(&b, "  %18d  %12s  %7.1fd\n",
			milestone, time.Duration(k).Round(time.Minute), time.Duration(a).Hours()/24)
	}
	return b.String()
}

func elapsedAt(curve []crowd.ArrivalPoint, count int) int64 {
	for _, p := range curve {
		if p.Count >= count {
			return int64(p.Elapsed)
		}
	}
	return -1
}

func abElapsedAt(curve []abtest.ArrivalPoint, count int) int64 {
	for _, p := range curve {
		if p.Count >= count {
			return int64(p.Elapsed)
		}
	}
	return -1
}

// FormatFig7b renders the A/B campaign result.
func FormatFig7b(res *ExpandButtonResult) string {
	var b strings.Builder
	c := res.ABCounts
	b.WriteString("Fig. 7(b) — A/B testing result\n")
	fmt.Fprintf(&b, "  original (A): %d visitors, %d clicks (paper: 51 visitors, 3 clicks)\n", c.VisitorsA, c.ClicksA)
	fmt.Fprintf(&b, "  variant  (B): %d visitors, %d clicks (paper: 49 visitors, 6 clicks)\n", c.VisitorsB, c.ClicksB)
	fmt.Fprintf(&b, "  one-sided P = %.3f, two-sided P = %.3f (paper: one-sided 0.133)\n",
		res.ABSignificance.PValueOneSided, res.ABSignificance.PValue)
	fmt.Fprintf(&b, "  significant at 95%% (two-sided)? %v; across %d replicate campaigns only %.0f%% reach significance\n",
		res.ABSignificance.Significant(0.05), res.ABReplicates, res.ABSignificantFraction*100)
	return b.String()
}

// FormatFig7c renders the Kaleidoscope question-C result.
func FormatFig7c(res *ExpandButtonResult) string {
	var b strings.Builder
	t := res.Tallies[QuestionVisibility]
	b.WriteString("Fig. 7(c) — Kaleidoscope result for question C (button visibility)\n")
	fmt.Fprintf(&b, "  variant more visible: %d; original more visible: %d; same: %d\n", t.Right, t.Left, t.Same)
	fmt.Fprintf(&b, "  (paper: 46 variant, 14 original)\n")
	fmt.Fprintf(&b, "  two-sided P = %.3g — significant at 99%%? %v (paper: 6.8e-8, yes)\n",
		res.VisibilitySignificance.PValue, res.VisibilitySignificance.Significant(0.01))
	return b.String()
}

// FormatFig8 renders all three questions' response splits.
func FormatFig8(res *ExpandButtonResult) string {
	var b strings.Builder
	b.WriteString("Fig. 8 — responses to all questions (Kaleidoscope)\n")
	fmt.Fprintf(&b, "  %-52s %9s %6s %9s\n", "question", "original", "same", "variant")
	for _, q := range []string{QuestionAppeal, QuestionButtonLook, QuestionVisibility} {
		t := res.Tallies[q]
		total := t.Total()
		if total == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-52s %8.0f%% %5.0f%% %8.0f%%\n",
			q,
			100*t.Proportion(questionnaire.ChoiceLeft),
			100*t.Proportion(questionnaire.ChoiceSame),
			100*t.Proportion(questionnaire.ChoiceRight))
	}
	b.WriteString("  (paper: A ~50% same; B same 45% edges variant 42%; C variant 46 vs original 14)\n")
	return b.String()
}
