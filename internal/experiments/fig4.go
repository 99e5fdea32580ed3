// Package experiments packages the paper's evaluation section as runnable,
// parameterized experiments. Each Run* function drives the full
// Kaleidoscope pipeline (aggregate -> recruit -> extension flows ->
// conclude) with core.RunStudy on one memory node — the deployment
// kscope-server runs, its served /results the figures' source — and
// returns the figure's data in the paper's shape, plus Format* helpers
// that print the rows/series a reader can compare against the paper:
//
//	Fig. 4  — font-size ranking distributions (raw / QC / in-lab)
//	Fig. 5  — tester-behaviour CDFs (active tabs / created tabs / time)
//	Fig. 6-8 — the Expand-button study: Kaleidoscope vs A/B testing
//	Fig. 9  — the uPLT page-load study
//	Ablations — sorting reduction, QC components, local replay
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kaleidoscope/internal/aggregator"
	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
	"kaleidoscope/internal/server"
	"kaleidoscope/internal/stats"
	"kaleidoscope/internal/testbed"
	"kaleidoscope/internal/webgen"
)

// Fig4Config parameterizes the font-size study (paper §IV-A).
type Fig4Config struct {
	// FontSizesPt are the versions under test; default {10,12,14,18,22}.
	FontSizesPt []int
	// CrowdWorkers is the FigureEight-recruited cohort size; default 100.
	CrowdWorkers int
	// InLabWorkers is the trusted cohort size; default 50.
	InLabWorkers int
	// PageSeed holds the article text constant across versions.
	PageSeed int64
}

func (c Fig4Config) withDefaults() Fig4Config {
	if len(c.FontSizesPt) == 0 {
		c.FontSizesPt = []int{10, 12, 14, 18, 22}
	}
	if c.CrowdWorkers == 0 {
		c.CrowdWorkers = 100
	}
	if c.InLabWorkers == 0 {
		c.InLabWorkers = 50
	}
	if c.PageSeed == 0 {
		c.PageSeed = 42
	}
	return c
}

// Fig4Result carries the three panels of Fig. 4 plus the telemetry Fig. 5
// is built from.
type Fig4Result struct {
	Config Fig4Config
	// Dist panels: dist[rank][version] = fraction of participants placing
	// `version` at `rank` (rank 0 = "A" = best).
	Raw               [][]float64
	QualityControlled [][]float64
	InLab             [][]float64
	// Cohort accounting.
	RawWorkers, KeptWorkers, DroppedWorkers, InLabWorkers int
	// CrowdCostUSD and CrowdDuration mirror the paper's $11 / ~12 h.
	CrowdCostUSD  float64
	CrowdDuration time.Duration
	// Outcomes expose the underlying runs for follow-on analysis (Fig. 5).
	CrowdOutcome *core.Outcome
	InLabOutcome *core.Outcome
}

// runStudy runs a study on a fresh memory node, as the product serves one.
func runStudy(study *core.Study, rng *rand.Rand) (*core.Outcome, error) {
	bed, err := testbed.Start(testbed.Topology{}, testbed.Run{})
	if err != nil {
		return nil, err
	}
	defer bed.Close()
	return core.RunStudy(bed, study, rng)
}

// fontQuestion is the paper's comparison question.
const fontQuestion = "Which webpage's font size is more suitable (easier) for reading?"

// buildFontStudy assembles the font-size study over a given pool.
func buildFontStudy(cfg Fig4Config, testID string, pool *crowd.Population, workers int, trustedOnly bool) (*core.Study, error) {
	test := &params.Test{
		TestID:          testID,
		WebpageNum:      len(cfg.FontSizesPt),
		TestDescription: "What is the best font size for online reading?",
		ParticipantNum:  workers,
		Questions:       []string{fontQuestion},
	}
	sites := make(map[string]*webgen.Site, len(cfg.FontSizesPt))
	for _, pt := range cfg.FontSizesPt {
		path := fmt.Sprintf("wiki-%dpt", pt)
		test.Webpages = append(test.Webpages, params.Webpage{
			WebPath:        path,
			WebPageLoad:    params.PageLoadSpec{UniformMillis: 3000},
			WebMainFile:    "index.html",
			WebDescription: fmt.Sprintf("%dpt main text", pt),
		})
		sites[path] = webgen.WikiArticle(webgen.WikiConfig{Seed: cfg.PageSeed, FontSizePt: pt})
	}
	// The paper's extreme control: 4pt vs 12pt, right obviously better.
	controls := []aggregator.ControlPair{{
		Name:     "extreme-font",
		Left:     webgen.WikiArticle(webgen.WikiConfig{Seed: cfg.PageSeed, FontSizePt: 4}),
		Right:    webgen.WikiArticle(webgen.WikiConfig{Seed: cfg.PageSeed, FontSizePt: 12}),
		Expected: questionnaire.ChoiceRight,
	}}
	return &core.Study{
		Params:      test,
		Sites:       sites,
		Controls:    controls,
		Answer:      extension.AnswerFontSize(),
		Pool:        pool,
		PaymentUSD:  0.11, // the paper pays $0.11 per crowd participant
		TrustedOnly: trustedOnly,
	}, nil
}

// RunFig4 executes the crowd and in-lab cohorts and aggregates the three
// ranking-distribution panels.
func RunFig4(cfg Fig4Config, rng *rand.Rand) (*Fig4Result, error) {
	if rng == nil {
		return nil, errors.New("experiments: nil random source")
	}
	cfg = cfg.withDefaults()
	n := len(cfg.FontSizesPt)
	if n < 2 {
		return nil, errors.New("experiments: need at least two font sizes")
	}
	res := &Fig4Result{Config: cfg}

	// Crowd cohort: historically-trustworthy FigureEight workers.
	crowdPool, err := crowd.TrustedCrowd(cfg.CrowdWorkers*2, rng)
	if err != nil {
		return nil, err
	}
	crowdStudy, err := buildFontStudy(cfg, "fig4-crowd", crowdPool, cfg.CrowdWorkers, true)
	if err != nil {
		return nil, err
	}
	crowdOutcome, err := runStudy(crowdStudy, rng)
	if err != nil {
		return nil, err
	}
	res.CrowdOutcome = crowdOutcome
	res.RawWorkers = len(crowdOutcome.Sessions)
	res.KeptWorkers = crowdOutcome.Filtered.Workers
	res.DroppedWorkers = crowdOutcome.Filtered.DroppedWorkers
	res.CrowdCostUSD = crowdOutcome.Recruitment.TotalCostUSD
	res.CrowdDuration = crowdOutcome.Recruitment.Completed

	rawRankings, err := core.WorkerRankings(crowdOutcome, "q0", n)
	if err != nil {
		return nil, fmt.Errorf("experiments: raw rankings: %w", err)
	}
	res.Raw, err = rank.RankDistribution(rawRankings, n)
	if err != nil {
		return nil, err
	}
	keptRankings, err := core.WorkerRankings(crowdOutcome.FilteredSessionsOutcome(), "q0", n)
	if err != nil {
		return nil, fmt.Errorf("experiments: filtered rankings: %w", err)
	}
	res.QualityControlled, err = rank.RankDistribution(keptRankings, n)
	if err != nil {
		return nil, err
	}

	// In-lab cohort: invited trusted participants.
	labPool, err := crowd.InLabPopulation(cfg.InLabWorkers*2, rng)
	if err != nil {
		return nil, err
	}
	labStudy, err := buildFontStudy(cfg, "fig4-inlab", labPool, cfg.InLabWorkers, true)
	if err != nil {
		return nil, err
	}
	labOutcome, err := runStudy(labStudy, rng)
	if err != nil {
		return nil, err
	}
	res.InLabOutcome = labOutcome
	res.InLabWorkers = len(labOutcome.Sessions)
	labRankings, err := core.WorkerRankings(labOutcome, "q0", n)
	if err != nil {
		return nil, fmt.Errorf("experiments: in-lab rankings: %w", err)
	}
	res.InLab, err = rank.RankDistribution(labRankings, n)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TopChoice returns the version index most often ranked "A" in a panel.
func TopChoice(dist [][]float64) int {
	best, bestShare := 0, -1.0
	for v, share := range dist[0] {
		if share > bestShare {
			best, bestShare = v, share
		}
	}
	return best
}

// PanelDistance returns the mean absolute difference between two ranking
// panels — how far a panel sits from the in-lab pseudo-ground truth.
func PanelDistance(a, b [][]float64) float64 {
	var sum float64
	var n int
	for i := range a {
		for j := range a[i] {
			d := a[i][j] - b[i][j]
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatFig4 renders the three panels the way the paper's Fig. 4 reads:
// per rank (A..E), the percentage each font size received.
func FormatFig4(res *Fig4Result) string {
	var b strings.Builder
	panels := []struct {
		name string
		dist [][]float64
	}{
		{"Kaleidoscope (raw)", res.Raw},
		{"Kaleidoscope (quality control)", res.QualityControlled},
		{"In-lab testing", res.InLab},
	}
	fmt.Fprintf(&b, "Fig. 4 — font-size ranking distributions (%% of participants per rank)\n")
	for _, panel := range panels {
		fmt.Fprintf(&b, "\n%s:\n      ", panel.name)
		for _, pt := range res.Config.FontSizesPt {
			fmt.Fprintf(&b, "%7dpt", pt)
		}
		b.WriteString("\n")
		for pos, row := range panel.dist {
			fmt.Fprintf(&b, "rank %c", 'A'+pos)
			for _, share := range row {
				fmt.Fprintf(&b, "%8.1f%%", share*100)
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "\ncrowd: %d workers, %d kept after QC, $%.2f, %s to recruit; in-lab: %d workers\n",
		res.RawWorkers, res.KeptWorkers, res.CrowdCostUSD, res.CrowdDuration.Round(time.Minute), res.InLabWorkers)
	return b.String()
}

// Fig5Result carries the behaviour CDFs of Fig. 5, one per cohort and
// metric.
type Fig5Result struct {
	// CDFs indexed by cohort: raw crowd, QC-kept crowd, in-lab.
	ActiveTabs  map[string]*stats.ECDF
	CreatedTabs map[string]*stats.ECDF
	TimeMinutes map[string]*stats.ECDF
}

// Cohort labels used in Fig5Result maps.
const (
	CohortRaw   = "raw"
	CohortQC    = "quality control"
	CohortInLab = "in-lab"
)

// BuildFig5 derives the Fig. 5 behaviour CDFs from a completed Fig. 4 run
// (the paper computes both from the same sessions).
func BuildFig5(fig4 *Fig4Result) (*Fig5Result, error) {
	if fig4 == nil || fig4.CrowdOutcome == nil || fig4.InLabOutcome == nil {
		return nil, errors.New("experiments: Fig4 result incomplete")
	}
	res := &Fig5Result{
		ActiveTabs:  make(map[string]*stats.ECDF),
		CreatedTabs: make(map[string]*stats.ECDF),
		TimeMinutes: make(map[string]*stats.ECDF),
	}
	cohorts := []struct {
		name     string
		sessions []server.SessionUpload
	}{
		{CohortRaw, fig4.CrowdOutcome.Sessions},
		{CohortQC, core.KeptSessions(fig4.CrowdOutcome)},
		{CohortInLab, fig4.InLabOutcome.Sessions},
	}
	for _, cohort := range cohorts {
		tabs, created, minutes := core.BehaviorSamples(cohort.sessions)
		if len(tabs) == 0 {
			return nil, fmt.Errorf("experiments: cohort %q has no telemetry", cohort.name)
		}
		var err error
		if res.ActiveTabs[cohort.name], err = stats.NewECDF(tabs); err != nil {
			return nil, err
		}
		if res.CreatedTabs[cohort.name], err = stats.NewECDF(created); err != nil {
			return nil, err
		}
		if res.TimeMinutes[cohort.name], err = stats.NewECDF(minutes); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// FormatFig5 renders the three CDF panels as quantile tables.
func FormatFig5(res *Fig5Result) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — tester behaviour per side-by-side comparison\n")
	panels := []struct {
		name string
		cdfs map[string]*stats.ECDF
		unit string
	}{
		{"(a) active tab switches", res.ActiveTabs, ""},
		{"(b) created tabs", res.CreatedTabs, ""},
		{"(c) time on task", res.TimeMinutes, " min"},
	}
	quantiles := []float64{0.25, 0.50, 0.75, 0.95, 1.00}
	for _, panel := range panels {
		fmt.Fprintf(&b, "\n%s:\n%-18s", panel.name, "cohort")
		for _, q := range quantiles {
			fmt.Fprintf(&b, "   p%02.0f", q*100)
		}
		b.WriteString("\n")
		for _, cohort := range []string{CohortRaw, CohortQC, CohortInLab} {
			cdf, ok := panel.cdfs[cohort]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-18s", cohort)
			for _, q := range quantiles {
				fmt.Fprintf(&b, "%6.1f", quantileOfECDF(cdf, q))
			}
			fmt.Fprintf(&b, "%s\n", panel.unit)
		}
	}
	return b.String()
}

// quantileOfECDF inverts an ECDF at quantile q via its step points.
func quantileOfECDF(cdf *stats.ECDF, q float64) float64 {
	pts := cdf.Points()
	for _, p := range pts {
		if p.Y >= q {
			return p.X
		}
	}
	return cdf.Max()
}
