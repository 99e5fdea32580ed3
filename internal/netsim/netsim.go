// Package netsim simulates loading a webpage over a network: connection
// profiles (bandwidth, latency, jitter, loss), parallel object fetching,
// and onload timing. Kaleidoscope's core argument for storing test pages
// locally is that testers' networks differ wildly; this package quantifies
// that discrepancy (the ablation bench compares visual-metric variance
// across profiles with and without local replay) and provides the
// "record a real page load, then replay it" pipeline the paper describes:
// a simulated network load trace can be converted into a page-load spec.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kaleidoscope/internal/params"
	"kaleidoscope/internal/webgen"
)

// Profile models an access network.
type Profile struct {
	Name         string
	DownlinkKbps float64 // downstream bandwidth
	RTTMillis    float64 // round-trip time
	JitterFrac   float64 // multiplicative jitter amplitude (e.g. 0.2 = ±20%)
	LossRate     float64 // probability a fetch needs one retransmit round
}

// Canonical profiles, loosely after common measurement-study buckets.
var (
	ProfileFiber  = Profile{Name: "fiber", DownlinkKbps: 100_000, RTTMillis: 8, JitterFrac: 0.05, LossRate: 0.001}
	ProfileCable  = Profile{Name: "cable", DownlinkKbps: 20_000, RTTMillis: 25, JitterFrac: 0.10, LossRate: 0.005}
	ProfileDSL    = Profile{Name: "dsl", DownlinkKbps: 6_000, RTTMillis: 45, JitterFrac: 0.15, LossRate: 0.01}
	Profile4G     = Profile{Name: "4g", DownlinkKbps: 12_000, RTTMillis: 60, JitterFrac: 0.25, LossRate: 0.01}
	Profile3G     = Profile{Name: "3g", DownlinkKbps: 1_600, RTTMillis: 150, JitterFrac: 0.35, LossRate: 0.03}
	ProfileSatell = Profile{Name: "satellite", DownlinkKbps: 5_000, RTTMillis: 600, JitterFrac: 0.20, LossRate: 0.02}
)

// AllProfiles returns the canonical profile set, fastest first.
func AllProfiles() []Profile {
	return []Profile{ProfileFiber, ProfileCable, ProfileDSL, Profile4G, Profile3G, ProfileSatell}
}

// maxParallelConns mirrors the per-host connection limit of contemporary
// browsers.
const maxParallelConns = 6

// Fetch is the simulated timeline of one object.
type Fetch struct {
	Path         string
	Bytes        int
	StartMillis  float64
	FinishMillis float64
}

// LoadTrace is the result of loading a site over a profile.
type LoadTrace struct {
	Profile Profile
	// Fetches is ordered by finish time.
	Fetches []Fetch
	// OnLoadMillis is when the last object finished — the classic PLT.
	OnLoadMillis float64
}

// ErrNilRNG is returned when no random source is supplied.
var ErrNilRNG = errors.New("netsim: nil random source")

// fetchTime computes one object's transfer duration: one RTT of request
// latency plus serialized payload time, with jitter and a loss penalty.
func (p Profile) fetchTime(bytes int, rng *rand.Rand) float64 {
	payloadMs := float64(bytes) * 8 / p.DownlinkKbps // kbps -> ms per bit*1000
	base := p.RTTMillis + payloadMs
	jitter := 1 + p.JitterFrac*(2*rng.Float64()-1)
	t := base * jitter
	if rng.Float64() < p.LossRate {
		t += p.RTTMillis * 2 // retransmission round
	}
	return math.Max(t, 0.1)
}

// LoadSite simulates fetching the site's main document followed by its
// resources over up to six parallel connections, returning the trace.
// Resource discovery is modeled as: the HTML must finish before any
// sub-resource fetch starts (parser discovery), then resources are fetched
// in path order over the connection pool.
func LoadSite(site *webgen.Site, p Profile, rng *rand.Rand) (*LoadTrace, error) {
	if rng == nil {
		return nil, ErrNilRNG
	}
	if err := site.Validate(); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	trace := &LoadTrace{Profile: p}

	html := site.HTML()
	htmlDone := p.fetchTime(len(html), rng)
	trace.Fetches = append(trace.Fetches, Fetch{
		Path: site.MainFile, Bytes: len(html), StartMillis: 0, FinishMillis: htmlDone,
	})

	// Connection pool: next free times.
	conns := make([]float64, maxParallelConns)
	for i := range conns {
		conns[i] = htmlDone
	}
	for _, path := range site.Paths() {
		if path == site.MainFile {
			continue
		}
		data, _ := site.Get(path)
		// Pick the earliest-free connection.
		best := 0
		for i := 1; i < len(conns); i++ {
			if conns[i] < conns[best] {
				best = i
			}
		}
		start := conns[best]
		finish := start + p.fetchTime(len(data), rng)
		conns[best] = finish
		trace.Fetches = append(trace.Fetches, Fetch{
			Path: path, Bytes: len(data), StartMillis: start, FinishMillis: finish,
		})
	}
	sort.Slice(trace.Fetches, func(i, j int) bool {
		return trace.Fetches[i].FinishMillis < trace.Fetches[j].FinishMillis
	})
	trace.OnLoadMillis = trace.Fetches[len(trace.Fetches)-1].FinishMillis
	return trace, nil
}

// FinishOf returns when the named resource finished, or (0, false).
func (t *LoadTrace) FinishOf(path string) (float64, bool) {
	for _, f := range t.Fetches {
		if f.Path == path {
			return f.FinishMillis, true
		}
	}
	return 0, false
}

// SpecFromTrace converts a load trace into a selector-form page-load spec —
// the paper's "record a real-world page load, then replay it" pipeline.
// The mapping assigns each region the finish time of the resources that
// populate it; the caller supplies region selectors and the resource paths
// they depend on.
func SpecFromTrace(trace *LoadTrace, regions map[string][]string) (params.PageLoadSpec, error) {
	if len(regions) == 0 {
		return params.PageLoadSpec{}, errors.New("netsim: no regions given")
	}
	selectors := make([]string, 0, len(regions))
	for sel := range regions {
		selectors = append(selectors, sel)
	}
	sort.Strings(selectors)
	var spec params.PageLoadSpec
	for _, sel := range selectors {
		var latest float64
		for _, path := range regions[sel] {
			finish, ok := trace.FinishOf(path)
			if !ok {
				return params.PageLoadSpec{}, fmt.Errorf("netsim: region %q depends on unknown resource %q", sel, path)
			}
			if finish > latest {
				latest = finish
			}
		}
		spec.Schedule = append(spec.Schedule, params.SelectorTime{
			Selector: sel,
			Millis:   int(math.Round(latest)),
		})
	}
	return spec, nil
}
