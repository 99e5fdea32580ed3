package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"kaleidoscope/internal/core"
	"kaleidoscope/internal/crowd"
	"kaleidoscope/internal/extension"
	"kaleidoscope/internal/netsim"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/webgen"
)

// ProtocolStudyResult is the paper's proposed follow-on experiment
// (§IV-C: "One can do more with replaying page loading, e.g., comparing
// http/1.1 and http/2.0"): the same page is loaded over both protocols on
// a slow network, both load traces are converted into replay schedules,
// and a crowd judges which replay feels ready first — Kaleidoscope's
// record-and-replay pipeline end to end.
type ProtocolStudyResult struct {
	Profile netsim.Profile
	Workers int
	// Onload times of the recorded loads (ms).
	H1OnLoadMillis float64
	H2OnLoadMillis float64
	// Tally of "which version seems ready to use first?" with HTTP/1.1 on
	// the left and HTTP/2 on the right.
	Raw      questionnaire.Tally
	Filtered questionnaire.Tally
	Outcome  *core.Outcome
}

// RunProtocolStudy records HTTP/1.1 and HTTP/2 loads of a resource-heavy
// article over the given profile and crowdsources the comparison.
func RunProtocolStudy(profile netsim.Profile, workers int, rng *rand.Rand) (*ProtocolStudyResult, error) {
	if rng == nil {
		return nil, errors.New("experiments: nil random source")
	}
	if workers < 5 {
		return nil, errors.New("experiments: need at least 5 workers")
	}
	// An image-heavy news front: the workload where protocol differences
	// actually show (many parallel image fetches).
	site := webgen.NewsPage(webgen.NewsConfig{Seed: 42, Cards: 12})
	regions := map[string][]string{
		"#masthead": {"css/news.css"},
		"#hero":     {"img/hero.png"},
		"#cards":    cardDeps(site),
		"#river":    {"css/news.css"},
	}

	// Record one load per protocol (the paper's "record the video of
	// loading a real world webpage" step, with the simulator as camera).
	h1Trace, err := netsim.LoadSiteProtocol(site, profile, netsim.HTTP1, rng)
	if err != nil {
		return nil, err
	}
	h2Trace, err := netsim.LoadSiteProtocol(site, profile, netsim.HTTP2, rng)
	if err != nil {
		return nil, err
	}
	h1Spec, err := netsim.SpecFromTrace(h1Trace, regions)
	if err != nil {
		return nil, err
	}
	h2Spec, err := netsim.SpecFromTrace(h2Trace, regions)
	if err != nil {
		return nil, err
	}

	test := &params.Test{
		TestID:          "protocol-study",
		WebpageNum:      2,
		TestDescription: fmt.Sprintf("HTTP/1.1 vs HTTP/2 page loading over %s", profile.Name),
		ParticipantNum:  workers,
		Questions:       []string{QuestionReadiness},
		Webpages: []params.Webpage{
			{WebPath: "article-h1", WebPageLoad: h1Spec, WebMainFile: "index.html", WebDescription: "replayed http/1.1 load"},
			{WebPath: "article-h2", WebPageLoad: h2Spec, WebMainFile: "index.html", WebDescription: "replayed http/2.0 load"},
		},
	}
	pool, err := crowd.TrustedCrowd(workers*2, rng)
	if err != nil {
		return nil, err
	}
	outcome, err := runStudy(&core.Study{
		Params: test,
		Sites: map[string]*webgen.Site{
			"article-h1": site,
			"article-h2": site.Clone(),
		},
		Answer:      extension.AnswerReadiness(),
		Pool:        pool,
		TrustedOnly: true,
	}, rng)
	if err != nil {
		return nil, err
	}

	res := &ProtocolStudyResult{
		Profile:        profile,
		Workers:        workers,
		H1OnLoadMillis: h1Trace.OnLoadMillis,
		H2OnLoadMillis: h2Trace.OnLoadMillis,
		Outcome:        outcome,
	}
	for _, sess := range outcome.Sessions {
		for _, r := range sess.Responses {
			res.Raw.Add(r.Choice)
		}
	}
	for _, sess := range core.KeptSessions(outcome) {
		for _, r := range sess.Responses {
			res.Filtered.Add(r.Choice)
		}
	}
	return res, nil
}

// cardDeps lists the card images plus the stylesheet as the card grid's
// dependencies.
func cardDeps(site *webgen.Site) []string {
	deps := []string{"css/news.css"}
	for _, p := range site.Paths() {
		if strings.HasPrefix(p, "img/card-") {
			deps = append(deps, p)
		}
	}
	return deps
}

// FormatProtocolStudy renders the comparison.
func FormatProtocolStudy(res *ProtocolStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — HTTP/1.1 vs HTTP/2 via record-and-replay (profile %s, %d workers)\n",
		res.Profile.Name, res.Workers)
	fmt.Fprintf(&b, "  recorded onload: http/1.1 %.0f ms, http/2.0 %.0f ms (%.2fx)\n",
		res.H1OnLoadMillis, res.H2OnLoadMillis, res.H1OnLoadMillis/math.Max(res.H2OnLoadMillis, 1))
	rows := []struct {
		name string
		t    questionnaire.Tally
	}{{"raw", res.Raw}, {"quality control", res.Filtered}}
	for _, row := range rows {
		if row.t.Total() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-16s http/1.1 %5.1f%%   Same %5.1f%%   http/2.0 %5.1f%%  (n=%d)\n",
			row.name,
			100*row.t.Proportion(questionnaire.ChoiceLeft),
			100*row.t.Proportion(questionnaire.ChoiceSame),
			100*row.t.Proportion(questionnaire.ChoiceRight),
			row.t.Total())
	}
	return b.String()
}
