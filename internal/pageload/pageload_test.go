package pageload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/render"
	"kaleidoscope/internal/webgen"
)

const replayDoc = `<html><head></head><body>
<nav id="navbar"><a href="#">one</a><a href="#">two</a></nav>
<div id="content"><p>` + "main text main text main text" + `</p><p>more body text here</p></div>
<div id="footer">footer text</div>
</body></html>`

func selectorSpec(pairs ...params.SelectorTime) params.PageLoadSpec {
	return params.PageLoadSpec{Schedule: pairs}
}

func TestBuildScheduleSelectorForm(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	spec := selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 2000},
		params.SelectorTime{Selector: "#content", Millis: 4000},
	)
	sched, err := BuildSchedule(doc, spec, nil)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	nav := doc.ByID("navbar")
	content := doc.ByID("content")
	footer := doc.ByID("footer")
	if sched.Reveal[nav] != 2000 {
		t.Errorf("navbar reveal = %d, want 2000", sched.Reveal[nav])
	}
	if sched.Reveal[content] != 4000 {
		t.Errorf("content reveal = %d, want 4000", sched.Reveal[content])
	}
	if sched.Reveal[footer] != 0 {
		t.Errorf("unmatched footer reveal = %d, want 0", sched.Reveal[footer])
	}
	// Descendants inherit the ancestor's time.
	for _, p := range content.ByTag("p") {
		if sched.Reveal[p] != 4000 {
			t.Errorf("content paragraph reveal = %d, want 4000 (inherited)", sched.Reveal[p])
		}
	}
	for _, a := range nav.ByTag("a") {
		if sched.Reveal[a] != 2000 {
			t.Errorf("nav link reveal = %d, want 2000 (inherited)", sched.Reveal[a])
		}
	}
	if sched.EndMillis != 4000 {
		t.Errorf("EndMillis = %d, want 4000", sched.EndMillis)
	}
}

func TestBuildScheduleLatestWinsOnOverlap(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	spec := selectorSpec(
		params.SelectorTime{Selector: "p", Millis: 1000},
		params.SelectorTime{Selector: "#content p", Millis: 3000},
	)
	sched, err := BuildSchedule(doc, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.ByID("content").ByTag("p")[0]
	if sched.Reveal[p] != 3000 {
		t.Errorf("overlapping selectors: reveal = %d, want 3000 (latest)", sched.Reveal[p])
	}
}

func TestBuildScheduleChildLaterThanParent(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	spec := selectorSpec(
		params.SelectorTime{Selector: "#content", Millis: 1000},
		params.SelectorTime{Selector: "#content p", Millis: 2500},
	)
	sched, err := BuildSchedule(doc, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.ByID("content").ByTag("p")[0]
	if sched.Reveal[p] != 2500 {
		t.Errorf("child with later time = %d, want 2500", sched.Reveal[p])
	}
}

func TestBuildScheduleUniform(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	rng := rand.New(rand.NewSource(1))
	sched, err := BuildSchedule(doc, params.PageLoadSpec{UniformMillis: 2000}, rng)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if sched.EndMillis > 2000 || sched.EndMillis <= 0 {
		t.Errorf("EndMillis = %d, want in (0, 2000]", sched.EndMillis)
	}
	// Every element has a time within bound, and effective times are
	// ancestor-monotone.
	for n, tm := range sched.Reveal {
		if tm < 0 || tm > 2000 {
			t.Errorf("reveal %d out of range", tm)
		}
		for anc := n.Parent; anc != nil; anc = anc.Parent {
			if anc.Type != htmlx.ElementNode {
				continue
			}
			if at, ok := sched.Reveal[anc]; ok && at > tm {
				t.Errorf("node revealed at %d before ancestor at %d", tm, at)
			}
		}
	}
}

func TestBuildScheduleUniformNeedsRNG(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	if _, err := BuildSchedule(doc, params.PageLoadSpec{UniformMillis: 100}, nil); err != ErrNilRNG {
		t.Errorf("err = %v, want ErrNilRNG", err)
	}
}

func TestBuildScheduleZeroIsInstant(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	sched, err := BuildSchedule(doc, params.PageLoadSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.EndMillis != 0 {
		t.Errorf("zero spec EndMillis = %d", sched.EndMillis)
	}
	for _, tm := range sched.Reveal {
		if tm != 0 {
			t.Errorf("zero spec reveal = %d", tm)
		}
	}
}

func TestBuildScheduleBadSelector(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	spec := selectorSpec(params.SelectorTime{Selector: ">", Millis: 10})
	if _, err := BuildSchedule(doc, spec, nil); err == nil {
		t.Error("bad selector should error")
	}
}

func simulate(t *testing.T, doc *htmlx.Node, spec params.PageLoadSpec) *Replay {
	t.Helper()
	r, err := Simulate(doc, nil, render.DefaultViewport(), spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

func TestReplayMetricsSelectorForm(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 2000},
		params.SelectorTime{Selector: "#content", Millis: 4000},
		params.SelectorTime{Selector: "#footer", Millis: 1000},
	))
	if got := r.TTFP(); got != 1000 {
		t.Errorf("TTFP = %d, want 1000 (footer first)", got)
	}
	if got := r.ATFTime(); got != 4000 {
		t.Errorf("ATFTime = %d, want 4000", got)
	}
	// Nothing is painted before the footer, and the page is only partly
	// painted between it and the content.
	if got := r.UPLT(1e-6); got != 1000 {
		t.Errorf("UPLT(1e-6) = %d, want 1000", got)
	}
	si := r.SpeedIndex()
	if si <= 0 || si >= 4000 {
		t.Errorf("SpeedIndex = %v, want in (0, 4000)", si)
	}
	if got := r.UPLT(1.0); got != 4000 {
		t.Errorf("UPLT(1.0) = %d, want 4000", got)
	}
}

func TestReplayInstantPage(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, params.PageLoadSpec{})
	if r.SpeedIndex() != 0 {
		t.Errorf("instant SpeedIndex = %v, want 0", r.SpeedIndex())
	}
	if r.ATFTime() != 0 || r.TTFP() != 0 {
		t.Errorf("instant ATF/TTFP = %d/%d", r.ATFTime(), r.TTFP())
	}
	if got := r.UPLT(1); got != 0 {
		t.Errorf("instant UPLT(1) = %d, want 0", got)
	}
}

// TestFig9Shape reproduces the core asymmetry behind the paper's Fig. 9
// experiment: two versions with the SAME above-the-fold completion time
// (both finish at 4s) but different content orders. Version A shows the
// navbar first; version B shows the main text first. Plain ATF time ties;
// the content-weighted uPLT strongly prefers B.
func TestFig9Shape(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 42})
	specA := selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 2000},
		params.SelectorTime{Selector: "#content", Millis: 4000},
		params.SelectorTime{Selector: "#infobox", Millis: 4000},
	)
	specB := selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 4000},
		params.SelectorTime{Selector: "#content", Millis: 2000},
		params.SelectorTime{Selector: "#infobox", Millis: 4000},
	)
	docA := htmlx.Parse(string(site.HTML()))
	docB := htmlx.Parse(string(site.HTML()))
	css, _ := site.Get("css/style.css")
	sheet := cssx.ParseStylesheet(string(css))
	vp := render.DefaultViewport()
	ra, err := Simulate(docA, sheet, vp, specA, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(docB, sheet, vp, specB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ATFTime() != rb.ATFTime() {
		t.Errorf("ATF times should tie: %d vs %d", ra.ATFTime(), rb.ATFTime())
	}
	ma := ra.MeanReadyTime(ContentWeight)
	mb := rb.MeanReadyTime(ContentWeight)
	if mb >= ma {
		t.Errorf("text-first version should feel faster: A=%v B=%v", ma, mb)
	}
	ua := ra.WeightedUPLT(0.8, ContentWeight)
	ub := rb.WeightedUPLT(0.8, ContentWeight)
	if ub >= ua {
		t.Errorf("weighted uPLT should prefer B: A=%d B=%d", ua, ub)
	}
}

func TestWeightedCompletenessDefaults(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, params.PageLoadSpec{})
	if got := r.WeightedUPLT(0.9, func(*htmlx.Node) float64 { return 0 }); got != 0 {
		t.Errorf("all-zero weights uPLT = %d, want 0", got)
	}
}

func TestContentWeight(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	content := doc.ByID("content")
	nav := doc.ByID("navbar")
	p := content.ByTag("p")[0]
	if ContentWeight(content) != 1 || ContentWeight(p) != 1 {
		t.Error("content subtree should weigh 1")
	}
	if ContentWeight(nav) >= 0.5 {
		t.Error("navbar should weigh little")
	}
	if w := ContentWeight(doc.ByID("footer")); w != 0.5 {
		t.Errorf("unclassified weight = %v, want 0.5", w)
	}
}

func TestInjectAndExtractSpec(t *testing.T) {
	doc := htmlx.Parse(`<html><head><title>t</title></head><body><p>x</p></body></html>`)
	spec := selectorSpec(params.SelectorTime{Selector: "#main", Millis: 1500})
	if err := InjectSpec(doc, spec); err != nil {
		t.Fatalf("InjectSpec: %v", err)
	}
	if doc.ByID(SpecElementID) == nil || doc.ByID(RuntimeElementID) == nil {
		t.Fatal("injected elements missing")
	}
	got, err := ExtractSpec(doc)
	if err != nil {
		t.Fatalf("ExtractSpec: %v", err)
	}
	if len(got.Schedule) != 1 || got.Schedule[0] != spec.Schedule[0] {
		t.Errorf("extracted = %+v, want %+v", got, spec)
	}
	// Survives serialization (the actual transport path).
	round := htmlx.Parse(htmlx.Render(doc))
	got, err = ExtractSpec(round)
	if err != nil {
		t.Fatalf("ExtractSpec after round-trip: %v", err)
	}
	if got.Schedule[0].Millis != 1500 {
		t.Errorf("round-trip spec = %+v", got)
	}
}

func TestInjectIdempotent(t *testing.T) {
	doc := htmlx.Parse(`<html><head></head><body></body></html>`)
	if err := InjectSpec(doc, params.PageLoadSpec{UniformMillis: 100}); err != nil {
		t.Fatal(err)
	}
	if err := InjectSpec(doc, params.PageLoadSpec{UniformMillis: 900}); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.FindAll(func(n *htmlx.Node) bool { return n.ID() == SpecElementID })); n != 1 {
		t.Errorf("spec elements = %d, want 1", n)
	}
	spec, err := ExtractSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.UniformMillis != 900 {
		t.Errorf("spec = %+v, want latest injection", spec)
	}
}

func TestExtractSpecMissing(t *testing.T) {
	doc := htmlx.Parse(`<html><body></body></html>`)
	if _, err := ExtractSpec(doc); err != ErrNoSpec {
		t.Errorf("err = %v, want ErrNoSpec", err)
	}
}

func TestInjectWithoutHead(t *testing.T) {
	doc := htmlx.Parse(`<body><p>x</p></body>`)
	if err := InjectSpec(doc, params.PageLoadSpec{UniformMillis: 10}); err != nil {
		t.Fatalf("InjectSpec without head: %v", err)
	}
	if _, err := ExtractSpec(doc); err != nil {
		t.Errorf("ExtractSpec: %v", err)
	}
}

// TestUniformScheduleStatisticalShape: with many nodes, uniform reveal
// times cover the range roughly evenly (mean near T/2).
func TestUniformScheduleStatisticalShape(t *testing.T) {
	site := webgen.WikiArticle(webgen.WikiConfig{Seed: 3})
	doc := htmlx.Parse(string(site.HTML()))
	rng := rand.New(rand.NewSource(99))
	sched, err := BuildSchedule(doc, params.PageLoadSpec{UniformMillis: 3000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum, n float64
	for _, tm := range sched.Reveal {
		sum += float64(tm)
		n++
	}
	mean := sum / n
	// Effective times skew late (max over ancestors), so allow a wide band
	// strictly inside (0, 3000).
	if mean < 500 || mean > 2900 {
		t.Errorf("mean reveal %v outside plausible band", mean)
	}
}

// TestSpeedIndexInvariants: SI is bounded by the end time, and delaying the
// whole page increases SI.
func TestSpeedIndexInvariants(t *testing.T) {
	f := func(delay uint16) bool {
		d := int(delay%5000) + 100
		doc := htmlx.Parse(replayDoc)
		r, err := Simulate(doc, nil, render.DefaultViewport(),
			selectorSpec(params.SelectorTime{Selector: "body", Millis: d}), nil)
		if err != nil {
			return false
		}
		si := r.SpeedIndex()
		// Everything appears at d: SI == d exactly.
		return si > float64(d)-1e-6 && si < float64(d)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScheduleTimes(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	sched, err := BuildSchedule(doc, selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 2000},
		params.SelectorTime{Selector: "#content", Millis: 4000},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{"navbar": 2000, "content": 4000, "footer": 0} {
		if got, ok := sched.Reveal[doc.ByID(id)]; !ok || got != want {
			t.Errorf("#%s revealed at %d (%v), want %d", id, got, ok, want)
		}
	}
}

func TestWeightedCurveAndUPLTThresholds(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 1000},
		params.SelectorTime{Selector: "#content", Millis: 3000},
	))
	// Threshold 0 reaches at the first event; threshold 1 at the end.
	if got := r.UPLT(0); got > 1000 {
		t.Errorf("UPLT(0) = %d", got)
	}
	if got := r.UPLT(1); got != 3000 {
		t.Errorf("UPLT(1) = %d, want 3000", got)
	}
	// The weighted curve is monotone in time: a higher threshold is
	// reached no earlier, and the whole of it at the last event.
	prev := 0
	for _, th := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := r.WeightedUPLT(th, ContentWeight)
		if got < prev {
			t.Fatalf("WeightedUPLT(%v) = %d, before the lower threshold's %d", th, got, prev)
		}
		prev = got
	}
	if prev != 3000 {
		t.Errorf("WeightedUPLT(1) = %d, want 3000", prev)
	}
}

func TestMeanReadyTimeNilWeight(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, selectorSpec(params.SelectorTime{Selector: "body", Millis: 2000}))
	m := r.MeanReadyTime(nil)
	if m < 2000-1e-6 || m > 2000+1e-6 {
		t.Errorf("uniform-weight mean = %v, want 2000", m)
	}
}

func TestChromeWeightComplement(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	content := doc.ByID("content")
	nav := doc.ByID("navbar")
	if ChromeWeight(nav) != 1 {
		t.Errorf("nav chrome weight = %v", ChromeWeight(nav))
	}
	if ChromeWeight(content) >= 0.5 {
		t.Errorf("content chrome weight = %v", ChromeWeight(content))
	}
	if w := ChromeWeight(doc.ByID("footer")); w != 0.5 {
		t.Errorf("unclassified chrome weight = %v", w)
	}
}

func TestEmptyPageReplay(t *testing.T) {
	doc := htmlx.Parse(`<html><head></head><body></body></html>`)
	r, err := Simulate(doc, nil, render.DefaultViewport(), params.PageLoadSpec{UniformMillis: 1000}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.UPLT(1); got != 0 {
		t.Errorf("empty page should be complete immediately, UPLT(1) = %d", got)
	}
	if r.SpeedIndex() != 0 || r.ATFTime() != 0 {
		t.Errorf("empty page metrics: SI=%v ATF=%d", r.SpeedIndex(), r.ATFTime())
	}
}

func TestTTFMP(t *testing.T) {
	doc := htmlx.Parse(replayDoc)
	r := simulate(t, doc, selectorSpec(
		params.SelectorTime{Selector: "#navbar", Millis: 500},
		params.SelectorTime{Selector: "#content", Millis: 2000},
	))
	// Meaningful (content-weighted) paint waits for the main text, even
	// though the nav painted at 500.
	ttfmp := r.TTFMP(0.25)
	if ttfmp < 500 {
		t.Errorf("TTFMP = %d, implausible", ttfmp)
	}
	if r.TTFP() > ttfmp {
		t.Errorf("TTFP %d should not exceed TTFMP %d", r.TTFP(), ttfmp)
	}
	// Raising the threshold never lowers TTFMP.
	if r.TTFMP(0.9) < r.TTFMP(0.25) {
		t.Error("TTFMP not monotone in threshold")
	}
}
