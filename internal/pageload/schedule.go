// Package pageload implements Kaleidoscope's page-load replay: the paper's
// novel mechanism for testing loading experience reproducibly. A replay
// hides every DOM node, then reveals nodes on a schedule derived from the
// test parameters — either uniformly at random within a bound ("web page
// load": 2000) or at fixed per-selector times ([{"#main":1000}, ...]).
// From the reveal schedule and the layout geometry the package derives the
// visual metrics the paper discusses: Time to First Paint, Above-the-Fold
// time, Speed Index, and user-perceived page load time.
package pageload

import (
	"errors"
	"fmt"
	"math/rand"

	"kaleidoscope/internal/cssx"
	"kaleidoscope/internal/htmlx"
	"kaleidoscope/internal/params"
)

// ErrNilRNG is returned when a uniform-random schedule is requested without
// a random source.
var ErrNilRNG = errors.New("pageload: uniform schedule requires a random source")

// Schedule maps every element of a document to its effective reveal time in
// milliseconds. Effective means ancestor-aware: a node cannot become
// visible before every ancestor is visible, exactly as in the DOM, so a
// node's effective time is the maximum of its own and its ancestors'
// assigned times.
type Schedule struct {
	// Reveal is the effective reveal time per element.
	Reveal map[*htmlx.Node]int
	// EndMillis is the largest reveal time.
	EndMillis int
}

// BuildSchedule computes the reveal schedule for doc under spec.
//
// Uniform form: every element is independently assigned a uniformly random
// time in [0, UniformMillis] (rng required).
//
// Selector form: elements matched by a selector are assigned its time;
// everything else is assigned 0. When multiple selectors match one element
// the latest time wins (the node stays hidden until its last rule fires),
// which makes schedules compose predictably.
func BuildSchedule(doc *htmlx.Node, spec params.PageLoadSpec, rng *rand.Rand) (*Schedule, error) {
	assigned := make(map[*htmlx.Node]int)
	elements := doc.Elements()

	if spec.IsUniform() {
		if spec.UniformMillis > 0 {
			if rng == nil {
				return nil, ErrNilRNG
			}
			for _, el := range elements {
				assigned[el] = rng.Intn(spec.UniformMillis + 1)
			}
		}
		// UniformMillis == 0: everything reveals at 0 (no replay).
	} else {
		for _, st := range spec.Schedule {
			matches, err := cssx.Query(doc, st.Selector)
			if err != nil {
				return nil, fmt.Errorf("pageload: selector %q: %w", st.Selector, err)
			}
			for _, m := range matches {
				if st.Millis > assigned[m] {
					assigned[m] = st.Millis
				}
			}
		}
	}

	sched := &Schedule{Reveal: make(map[*htmlx.Node]int, len(elements))}
	var resolve func(n *htmlx.Node, inherited int)
	resolve = func(n *htmlx.Node, inherited int) {
		t := inherited
		if n.Type == htmlx.ElementNode {
			if own, ok := assigned[n]; ok && own > t {
				t = own
			}
			sched.Reveal[n] = t
			if t > sched.EndMillis {
				sched.EndMillis = t
			}
		}
		for _, c := range n.Children {
			resolve(c, t)
		}
	}
	resolve(doc, 0)
	return sched, nil
}
