package crowd

import (
	"math/rand"
	"testing"
	"time"

	"kaleidoscope/internal/questionnaire"
	"kaleidoscope/internal/rank"
)

func TestNewPopulationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPopulation(0, InLabMix, true, rng); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewPopulation(10, InLabMix, true, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := NewPopulation(10, Mix{Diligent: 0.5}, true, rng); err != ErrBadMix {
		t.Error("non-normalized mix should fail")
	}
}

func TestPopulationComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, err := OpenCrowd(1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := pop.CountByArchetype()
	// Rough agreement with OpenCrowdMix at n=1000.
	if counts[Diligent] < 320 || counts[Diligent] > 480 {
		t.Errorf("diligent = %d, want ~400", counts[Diligent])
	}
	if counts[Hasty] < 150 || counts[Hasty] > 300 {
		t.Errorf("hasty = %d, want ~220", counts[Hasty])
	}
	for _, w := range pop.Workers {
		if w.Trusted {
			t.Fatal("open crowd should be untrusted")
		}
	}
	lab, err := InLabPopulation(50, rng)
	if err != nil {
		t.Fatal(err)
	}
	labCounts := lab.CountByArchetype()
	if labCounts[Hasty] != 0 || labCounts[Distracted] != 0 {
		t.Errorf("in-lab should have no hasty/distracted workers: %v", labCounts)
	}
}

func TestWorkerIDsUniqueAndDemographicsSane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, err := TrustedCrowd(200, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range pop.Workers {
		if seen[w.ID] {
			t.Fatalf("duplicate id %s", w.ID)
		}
		seen[w.ID] = true
		if w.Demo.TechAbility < 1 || w.Demo.TechAbility > 5 {
			t.Errorf("tech ability %d out of range", w.Demo.TechAbility)
		}
		if w.Demo.Gender == "" || w.Demo.AgeBand == "" || w.Demo.Country == "" {
			t.Errorf("incomplete demographics: %+v", w.Demo)
		}
		if w.PreferredFontPt < 9 || w.PreferredFontPt > 25 {
			t.Errorf("preferred font %v implausible", w.PreferredFontPt)
		}
		if !w.Trusted {
			t.Error("trusted crowd should be trusted")
		}
	}
}

func TestFontUtilityShape(t *testing.T) {
	w := &Worker{PreferredFontPt: 12, FontTolerance: 3}
	if w.FontUtility(12) != 1 {
		t.Errorf("utility at preference = %v, want 1", w.FontUtility(12))
	}
	if !(w.FontUtility(12) > w.FontUtility(14) && w.FontUtility(14) > w.FontUtility(22)) {
		t.Error("utility should decay with distance")
	}
	if w.FontUtility(10) != w.FontUtility(14) {
		t.Error("utility should be symmetric around the preference")
	}
}

func TestCompareFontSizeDiligent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := newWorker(0, Diligent, true, rng)
	w.PreferredFontPt = 12
	w.FontTolerance = 3
	// 12 vs 22: a diligent worker should almost always pick 12.
	wins := 0
	for i := 0; i < 200; i++ {
		if w.CompareFontSize(12, 22, rng) == questionnaire.ChoiceLeft {
			wins++
		}
	}
	if wins < 180 {
		t.Errorf("diligent 12-vs-22 wins = %d/200, want > 180", wins)
	}
	// Side symmetry: swapping sides flips the answer distribution.
	rights := 0
	for i := 0; i < 200; i++ {
		if w.CompareFontSize(22, 12, rng) == questionnaire.ChoiceRight {
			rights++
		}
	}
	if rights < 180 {
		t.Errorf("mirrored wins = %d/200", rights)
	}
}

func TestCompareFontSizeHastyIsNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newWorker(0, Hasty, false, rng)
	w.PreferredFontPt = 12
	w.FontTolerance = 3
	wins := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		if w.CompareFontSize(12, 22, rng) == questionnaire.ChoiceLeft {
			wins++
		}
	}
	// Hasty workers are mostly random: nowhere near the diligent 90%+.
	if wins > 240 {
		t.Errorf("hasty worker too accurate: %d/%d", wins, trials)
	}
	if wins < 60 {
		t.Errorf("hasty worker anti-correlated: %d/%d", wins, trials)
	}
}

func TestCompareSameVersionMostlySame(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := newWorker(0, Diligent, true, rng)
	same := 0
	for i := 0; i < 200; i++ {
		if w.CompareFontSize(12, 12, rng) == questionnaire.ChoiceSame {
			same++
		}
	}
	// Identical pages: diligent workers overwhelmingly answer Same — the
	// property control questions rely on.
	if same < 120 {
		t.Errorf("identical-pair Same rate = %d/200, too low", same)
	}
}

func TestCompareReadiness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWorker(0, Diligent, true, rng)
	leftWins := 0
	for i := 0; i < 200; i++ {
		// Left feels ready a second earlier.
		if w.CompareReadiness(2600, 3700, rng) == questionnaire.ChoiceLeft {
			leftWins++
		}
	}
	if leftWins < 130 {
		t.Errorf("faster side preferred only %d/200", leftWins)
	}
	// Sub-JND difference (50 ms): Same is the plurality answer.
	same := 0
	for i := 0; i < 200; i++ {
		if w.CompareReadiness(3000, 3050, rng) == questionnaire.ChoiceSame {
			same++
		}
	}
	if same < 95 {
		t.Errorf("sub-JND Same rate = %d/200, want plurality", same)
	}
}

func TestBehaviorByArchetype(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	medianTime := func(arch Archetype) float64 {
		w := newWorker(0, arch, true, rng)
		var times []int
		for i := 0; i < 300; i++ {
			b := w.BehaveOnce(rng)
			if b.TimeOnTaskMillis < 500 {
				t.Fatalf("time below floor: %d", b.TimeOnTaskMillis)
			}
			if b.CreatedTabs < 1 || b.CreatedTabs > 5 {
				t.Fatalf("tabs out of range: %d", b.CreatedTabs)
			}
			if b.ActiveTabSwitches < 2 {
				t.Fatalf("switches below minimum: %d", b.ActiveTabSwitches)
			}
			times = append(times, b.TimeOnTaskMillis)
		}
		var sum float64
		for _, ms := range times {
			sum += float64(ms)
		}
		return sum / float64(len(times))
	}
	hasty := medianTime(Hasty)
	diligent := medianTime(Diligent)
	distracted := medianTime(Distracted)
	if !(hasty < diligent && diligent < distracted) {
		t.Errorf("time ordering wrong: hasty=%v diligent=%v distracted=%v", hasty, diligent, distracted)
	}
}

// TestFontRankingMatchesCHIStudies is the calibration anchor for Fig. 4:
// aggregated trusted-crowd rankings of {10,12,14,18,22}pt put 12pt first
// and 22pt last, matching the paper and the CHI literature it cites.
func TestFontRankingMatchesCHIStudies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pop, err := TrustedCrowd(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []float64{10, 12, 14, 18, 22}
	var rankings [][]int
	for _, w := range pop.Workers {
		cmp := func(a, b int) rank.Outcome {
			switch w.CompareFontSize(sizes[a], sizes[b], rng) {
			case questionnaire.ChoiceLeft:
				return rank.OutcomeA
			case questionnaire.ChoiceRight:
				return rank.OutcomeB
			default:
				return rank.OutcomeTie
			}
		}
		res, err := rank.FullRoundRobin(len(sizes), cmp)
		if err != nil {
			t.Fatal(err)
		}
		rankings = append(rankings, res.Order)
	}
	scores, err := rank.BordaScores(rankings, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	// 12pt (index 1) best overall; 22pt (index 4) worst.
	best, worst := 0, 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
		if s < scores[worst] {
			worst = i
		}
	}
	if best != 1 {
		t.Errorf("best = %vpt (scores %v), want 12pt", sizes[best], scores)
	}
	if worst != 4 {
		t.Errorf("worst = %vpt (scores %v), want 22pt", sizes[worst], scores)
	}
	// Rank-A distribution: 12pt should lead, as in Fig. 4(b)/(c).
	dist, err := rank.RankDistribution(rankings, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	for v := range sizes {
		if v == 1 {
			continue
		}
		if dist[0][1] <= dist[0][v] {
			t.Errorf("rank-A share: 12pt %.2f <= %vpt %.2f", dist[0][1], sizes[v], dist[0][v])
		}
	}
}

func TestPlatformRecruitment(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pop, err := TrustedCrowd(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := NewPlatform(pop, 0)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{TestID: "t1", Title: "font test", RequiredWorkers: 100, PaymentUSD: 0.11, TrustedOnly: true}
	res, err := platform.Post(job, rng)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(res.Recruits) != 100 {
		t.Fatalf("recruits = %d", len(res.Recruits))
	}
	// Paper: ~12 hours for 100 workers. Accept a broad band.
	if res.Completed < 6*time.Hour || res.Completed > 24*time.Hour {
		t.Errorf("completed in %v, want ~12h", res.Completed)
	}
	if res.TotalCostUSD < 10.9 || res.TotalCostUSD > 11.1 {
		t.Errorf("cost = %v, want $11", res.TotalCostUSD)
	}
	curve := res.ArrivalCurve()
	if len(curve) != 100 || curve[99].Count != 100 {
		t.Errorf("curve end = %+v", curve[len(curve)-1])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Elapsed < curve[i-1].Elapsed {
			t.Fatal("curve not sorted")
		}
	}
}

func TestPlatformTrustFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop, err := OpenCrowd(50, rng)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := NewPlatform(pop, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{TestID: "t", RequiredWorkers: 10, PaymentUSD: 0.1, TrustedOnly: true}
	if _, err := platform.Post(job, rng); err == nil {
		t.Error("trusted-only job over untrusted pool should fail")
	}
	job.TrustedOnly = false
	if _, err := platform.Post(job, rng); err != nil {
		t.Errorf("open job should succeed: %v", err)
	}
}

func TestPlatformErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pop, _ := TrustedCrowd(5, rng)
	if _, err := NewPlatform(nil, 0); err == nil {
		t.Error("nil pool should fail")
	}
	if _, err := NewPlatform(pop, -time.Second); err == nil {
		t.Error("negative interarrival should fail")
	}
	platform, _ := NewPlatform(pop, time.Minute)
	if _, err := platform.Post(Job{}, rng); err == nil {
		t.Error("invalid job should fail")
	}
	if _, err := platform.Post(Job{TestID: "t", RequiredWorkers: 100, PaymentUSD: 0.1}, rng); err == nil {
		t.Error("oversubscribed job should fail")
	}
	if _, err := platform.Post(Job{TestID: "t", RequiredWorkers: 1, PaymentUSD: 0.1}, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if err := (Job{TestID: "t", RequiredWorkers: 1, PaymentUSD: -1}).Validate(); err == nil {
		t.Error("negative payment should fail")
	}
}

func TestArchetypeString(t *testing.T) {
	names := map[Archetype]string{
		Diligent: "diligent", Casual: "casual", Hasty: "hasty",
		Distracted: "distracted", Archetype(0): "invalid",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestDeterminism(t *testing.T) {
	p1, err := TrustedCrowd(20, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := TrustedCrowd(20, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Workers {
		a, b := p1.Workers[i], p2.Workers[i]
		if a.ID != b.ID || a.Archetype != b.Archetype || a.PreferredFontPt != b.PreferredFontPt {
			t.Fatalf("worker %d differs across same-seed populations", i)
		}
	}
}

func TestTextFocusDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pop, err := TrustedCrowd(500, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	textLeaning := 0
	for _, w := range pop.Workers {
		if w.TextFocus < 0 || w.TextFocus > 1 {
			t.Fatalf("TextFocus %v out of [0,1]", w.TextFocus)
		}
		sum += w.TextFocus
		if w.TextFocus > 0.5 {
			textLeaning++
		}
	}
	mean := sum / 500
	if mean < 0.5 || mean > 0.75 {
		t.Errorf("mean TextFocus = %v, want ~0.62", mean)
	}
	// The population skews toward text but is not unanimous — the paper's
	// Fig. 9 comments show both reading styles.
	if textLeaning < 300 || textLeaning > 480 {
		t.Errorf("text-leaning workers = %d/500", textLeaning)
	}
}

func TestCompareFontSizeSequentialNoisier(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w := newWorker(0, Diligent, true, rng)
	w.PreferredFontPt = 12
	w.FontTolerance = 3
	correct := func(fn func() questionnaire.Choice) int {
		n := 0
		for i := 0; i < 400; i++ {
			if fn() == questionnaire.ChoiceLeft {
				n++
			}
		}
		return n
	}
	side := correct(func() questionnaire.Choice { return w.CompareFontSize(12, 14, rng) })
	seq := correct(func() questionnaire.Choice { return w.CompareFontSizeSequential(12, 14, 3, rng) })
	if seq >= side {
		t.Errorf("sequential accuracy %d should trail side-by-side %d", seq, side)
	}
}
