package netsim

import (
	"math/rand"
	"testing"

	"kaleidoscope/internal/webgen"
)

func testSite() *webgen.Site {
	return webgen.WikiArticle(webgen.WikiConfig{Seed: 42})
}

func TestLoadSiteBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trace, err := LoadSite(testSite(), ProfileCable, rng)
	if err != nil {
		t.Fatalf("LoadSite: %v", err)
	}
	site := testSite()
	if len(trace.Fetches) != len(site.Files) {
		t.Errorf("fetches = %d, want %d", len(trace.Fetches), len(site.Files))
	}
	// HTML first: it starts at 0, everything else after it finishes.
	htmlFinish, ok := trace.FinishOf("index.html")
	if !ok {
		t.Fatal("index.html missing from trace")
	}
	for _, f := range trace.Fetches {
		if f.Path == "index.html" {
			if f.StartMillis != 0 {
				t.Errorf("html start = %v, want 0", f.StartMillis)
			}
			continue
		}
		if f.StartMillis < htmlFinish {
			t.Errorf("%s started at %v before html finished at %v", f.Path, f.StartMillis, htmlFinish)
		}
		if f.FinishMillis <= f.StartMillis {
			t.Errorf("%s finish %v <= start %v", f.Path, f.FinishMillis, f.StartMillis)
		}
	}
	if trace.OnLoadMillis != trace.Fetches[len(trace.Fetches)-1].FinishMillis {
		t.Error("onload should equal the last finish")
	}
}

func TestLoadSiteErrors(t *testing.T) {
	if _, err := LoadSite(testSite(), ProfileCable, nil); err != ErrNilRNG {
		t.Errorf("nil rng err = %v", err)
	}
	bad := webgen.NewSite("index.html")
	if _, err := LoadSite(bad, ProfileCable, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid site should fail")
	}
}

func TestSlowerProfilesAreSlower(t *testing.T) {
	// Average across several seeds to beat jitter.
	avg := func(p Profile) float64 {
		var sum float64
		for seed := int64(0); seed < 10; seed++ {
			trace, err := LoadSite(testSite(), p, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			sum += trace.OnLoadMillis
		}
		return sum / 10
	}
	fiber, threeG, sat := avg(ProfileFiber), avg(Profile3G), avg(ProfileSatell)
	if !(fiber < threeG) {
		t.Errorf("fiber %v should beat 3g %v", fiber, threeG)
	}
	if !(fiber < sat) {
		t.Errorf("fiber %v should beat satellite %v", fiber, sat)
	}
}

func TestParallelismHelps(t *testing.T) {
	// With 6 connections, total time is far less than serialized sum.
	rng := rand.New(rand.NewSource(3))
	trace, err := LoadSite(testSite(), ProfileFiber, rng)
	if err != nil {
		t.Fatal(err)
	}
	var serial float64
	for _, f := range trace.Fetches {
		serial += f.FinishMillis - f.StartMillis
	}
	htmlFinish, _ := trace.FinishOf("index.html")
	parallelPart := trace.OnLoadMillis - htmlFinish
	serialPart := serial - htmlFinish
	if len(trace.Fetches) > maxParallelConns && parallelPart >= serialPart {
		t.Errorf("parallel %v should beat serial %v", parallelPart, serialPart)
	}
}

func TestSpecFromTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace, err := LoadSite(testSite(), ProfileDSL, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromTrace(trace, map[string][]string{
		"#navbar":  {"css/style.css"},
		"#content": {"css/style.css", "img/figure-1.png"},
		"#infobox": {"img/lead.png"},
	})
	if err != nil {
		t.Fatalf("SpecFromTrace: %v", err)
	}
	if len(spec.Schedule) != 3 {
		t.Fatalf("schedule = %+v", spec.Schedule)
	}
	// Deterministic selector order (sorted).
	if spec.Schedule[0].Selector != "#content" {
		t.Errorf("schedule order = %+v", spec.Schedule)
	}
	// #content waits for the max of its dependencies.
	cssFinish, _ := trace.FinishOf("css/style.css")
	figFinish, _ := trace.FinishOf("img/figure-1.png")
	wantContent := cssFinish
	if figFinish > wantContent {
		wantContent = figFinish
	}
	got := spec.Schedule[0].Millis
	if got < int(wantContent)-1 || got > int(wantContent)+1 {
		t.Errorf("#content at %d, want ~%v", got, wantContent)
	}
}

func TestSpecFromTraceErrors(t *testing.T) {
	trace := &LoadTrace{}
	if _, err := SpecFromTrace(trace, nil); err == nil {
		t.Error("empty regions should fail")
	}
	if _, err := SpecFromTrace(trace, map[string][]string{"#x": {"nope.css"}}); err == nil {
		t.Error("unknown resource should fail")
	}
}

func TestFetchTimeScalesWithBytes(t *testing.T) {
	p := Profile{Name: "flat", DownlinkKbps: 8000, RTTMillis: 10, JitterFrac: 0, LossRate: 0}
	rng := rand.New(rand.NewSource(1))
	small := p.fetchTime(1000, rng)
	big := p.fetchTime(1_000_000, rng)
	if big <= small {
		t.Errorf("big fetch %v should exceed small %v", big, small)
	}
	// 1 MB at 8 Mbps = 1000 ms payload + 10 RTT.
	if big < 900 || big > 1100 {
		t.Errorf("1MB fetch = %v ms, want ~1010", big)
	}
}

func TestAllProfilesDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range AllProfiles() {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.DownlinkKbps <= 0 || p.RTTMillis <= 0 {
			t.Errorf("profile %q has non-positive parameters", p.Name)
		}
	}
}

func TestLoadTraceSortedByFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trace, err := LoadSite(testSite(), Profile4G, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace.Fetches); i++ {
		if trace.Fetches[i].FinishMillis < trace.Fetches[i-1].FinishMillis {
			t.Fatal("fetches not sorted by finish time")
		}
	}
}

func TestFinishOfMissing(t *testing.T) {
	trace := &LoadTrace{}
	if _, ok := trace.FinishOf("x"); ok {
		t.Error("missing path should report false")
	}
}

// TestSpecFromTraceDeterministicOrder: the produced schedule is sorted by
// selector so repeated conversions are byte-identical.
func TestSpecFromTraceDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trace, err := LoadSite(testSite(), ProfileCable, rng)
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string][]string{
		"#z": {"css/style.css"},
		"#a": {"js/article.js"},
		"#m": {"img/lead.png"},
	}
	s1, err := SpecFromTrace(trace, regions)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SpecFromTrace(trace, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Schedule) != 3 || s1.Schedule[0].Selector != "#a" || s1.Schedule[2].Selector != "#z" {
		t.Errorf("schedule order = %+v", s1.Schedule)
	}
	for i := range s1.Schedule {
		if s1.Schedule[i] != s2.Schedule[i] {
			t.Fatal("conversions differ across calls")
		}
	}
}

// TestTraceReveaTimesWithinOnload: every region's derived reveal time is
// bounded by the trace's onload.
func TestTraceRevealTimesWithinOnload(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, p := range AllProfiles() {
		trace, err := LoadSite(testSite(), p, rng)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := SpecFromTrace(trace, map[string][]string{
			"#navbar":  {"css/style.css"},
			"#content": {"img/figure-1.png", "img/figure-2.png"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range spec.Schedule {
			if float64(st.Millis) > trace.OnLoadMillis+1 {
				t.Errorf("%s: %s at %d exceeds onload %v", p.Name, st.Selector, st.Millis, trace.OnLoadMillis)
			}
		}
	}
}
