package pageload

import (
	"math/rand"
	"sort"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/params"
	"kaleidoscope/internal/render"
)

// NodeEvent is one node becoming visible during a replay.
type NodeEvent struct {
	Millis  int
	Node    *htmlx.Node
	Area    float64 // the node's exclusive painted area
	ATFArea float64 // the above-the-fold portion of Area
}

// Replay is a simulated page load: the reveal schedule joined with layout
// geometry, ready for metric extraction.
type Replay struct {
	Layout   *render.Layout
	Schedule *Schedule
	// Events lists node reveals sorted by time (ties in document order).
	Events []NodeEvent
	// TotalArea and TotalATFArea are the sums over all events.
	TotalArea    float64
	TotalATFArea float64
	// EndMillis is when the replay completes (no further visual change).
	EndMillis int
}

// Simulate builds the replay of doc under the given page-load spec. A nil
// sheet uses default styles; a nil rng is allowed for selector-form specs.
func Simulate(doc *htmlx.Node, sheet *cssx.Stylesheet, vp render.Viewport, spec params.PageLoadSpec, rng *rand.Rand) (*Replay, error) {
	sched, err := BuildSchedule(doc, spec, rng)
	if err != nil {
		return nil, err
	}
	layout := render.LayoutDocument(doc, sheet, vp)

	r := &Replay{Layout: layout, Schedule: sched, EndMillis: sched.EndMillis}
	// Document-order traversal keeps tie ordering deterministic.
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		g, ok := layout.Geom[n]
		if !ok {
			return true
		}
		t, ok := sched.Reveal[n]
		if !ok {
			return true
		}
		r.Events = append(r.Events, NodeEvent{Millis: t, Node: n, Area: g.OwnArea, ATFArea: g.OwnAreaATF})
		r.TotalArea += g.OwnArea
		r.TotalATFArea += g.OwnAreaATF
		return true
	})
	sort.SliceStable(r.Events, func(i, j int) bool { return r.Events[i].Millis < r.Events[j].Millis })
	return r, nil
}

// TTFP returns the Time to First Paint: the earliest time any non-zero
// area becomes visible. Pages that paint nothing report 0.
func (r *Replay) TTFP() int {
	for _, ev := range r.Events {
		if ev.Area > 0 {
			return ev.Millis
		}
	}
	return 0
}

// TTFMP returns the Time to First Meaningful Paint: the earliest time the
// content-weighted visual completeness reaches the given fraction of its
// final value (Lighthouse's TTFMP heuristically keys on the largest layout
// change of primary content; here "meaningful" is ContentWeight-weighted
// area). A typical threshold is 0.25.
func (r *Replay) TTFMP(threshold float64) int {
	return r.WeightedUPLT(threshold, ContentWeight)
}

// ATFTime returns the Above-the-Fold time: when the viewport's content is
// fully painted (VC reaches 1).
func (r *Replay) ATFTime() int {
	if r.TotalATFArea == 0 {
		return 0
	}
	var painted float64
	last := 0
	for _, ev := range r.Events {
		if ev.ATFArea > 0 {
			painted += ev.ATFArea
			last = ev.Millis
		}
		if painted >= r.TotalATFArea-1e-9 {
			return last
		}
	}
	return last
}

// SpeedIndex returns WebPageTest's Speed Index: the integral of
// (1 - VC(t)) dt from 0 to the end of visual change, in milliseconds.
// Lower is better; a page fully painted at t=0 scores 0.
func (r *Replay) SpeedIndex() float64 {
	if r.TotalATFArea == 0 {
		return 0
	}
	var si float64
	var painted float64
	prev := 0
	for i, ev := range r.Events {
		if ev.Millis > prev {
			vc := painted / r.TotalATFArea
			si += (1 - vc) * float64(ev.Millis-prev)
			prev = ev.Millis
		}
		painted += ev.ATFArea
		_ = i
	}
	return si
}

// UPLT returns the user-perceived page load time under a plain area model:
// the earliest time visual completeness reaches the given threshold
// (e.g. 0.95). See WeightedUPLT for the content-aware model.
func (r *Replay) UPLT(threshold float64) int {
	if r.TotalATFArea == 0 {
		return 0
	}
	var painted float64
	for _, ev := range r.Events {
		painted += ev.ATFArea
		if painted/r.TotalATFArea >= threshold-1e-12 {
			return ev.Millis
		}
	}
	return r.EndMillis
}

// WeightedUPLT returns the earliest time the weighted completeness reaches
// threshold.
func (r *Replay) WeightedUPLT(threshold float64, weight func(*htmlx.Node) float64) int {
	var total float64
	for _, ev := range r.Events {
		total += ev.ATFArea * weight(ev.Node)
	}
	if total == 0 {
		return 0
	}
	var painted float64
	for _, ev := range r.Events {
		painted += ev.ATFArea * weight(ev.Node)
		if painted/total >= threshold-1e-12 {
			return ev.Millis
		}
	}
	return r.EndMillis
}

// ContentWeight is the default importance model used by the tester
// perception simulation: main-text content counts heavily, navigation and
// other chrome counts little. The weights are calibrated so the Fig. 9
// experiment reproduces the paper's preference for text-first loading.
func ContentWeight(n *htmlx.Node) float64 {
	for cur := n; cur != nil; cur = cur.Parent {
		switch cur.ID() {
		case "content":
			return 1.0
		case "navbar":
			return 0.15
		case "infobox":
			return 0.35
		}
		switch cur.Tag {
		case "nav", "header", "footer":
			return 0.15
		case "aside":
			return 0.35
		case "main", "article":
			return 1.0
		}
	}
	return 0.5
}

// ChromeWeight is the complementary importance model to ContentWeight:
// navigation and page chrome count heavily, main text counts little. It
// models the minority of users who judge readiness by whether they can
// start browsing and moving (one of the paper's quoted comments), not by
// whether the text has arrived.
func ChromeWeight(n *htmlx.Node) float64 {
	for cur := n; cur != nil; cur = cur.Parent {
		switch cur.ID() {
		case "content":
			return 0.15
		case "navbar":
			return 1.0
		case "infobox":
			return 0.5
		}
		switch cur.Tag {
		case "nav", "header", "footer":
			return 1.0
		case "aside":
			return 0.5
		case "main", "article":
			return 0.15
		}
	}
	return 0.5
}

// MeanReadyTime summarizes a replay as the area-weighted mean reveal time
// (the centroid of the completeness curve) — a smooth scalar used by the
// perception model to compare two replays.
func (r *Replay) MeanReadyTime(weight func(*htmlx.Node) float64) float64 {
	if weight == nil {
		weight = func(*htmlx.Node) float64 { return 1 }
	}
	var total, acc float64
	for _, ev := range r.Events {
		w := ev.ATFArea * weight(ev.Node)
		total += w
		acc += w * float64(ev.Millis)
	}
	if total == 0 {
		return 0
	}
	return acc / total
}
