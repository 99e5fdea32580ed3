package earlystop

import (
	"math/rand"
	"testing"

	"kaleidoscope/internal/questionnaire"
)

// The headline honesty artifact: seeded Monte-Carlo calibration of the
// sequential engine. Formula trust is not enough — these tests *measure*
// the realized false-stop rate on thousands of simulated null campaigns
// and the realized power and cost on effect campaigns, and fail if either
// drifts outside the guarantees DESIGN §6.1 advertises. They run under
// -race in CI as part of `make check`.

const (
	calibAlpha    = 0.05
	calibStreams  = 2   // two questions on one real page
	calibHorizon  = 300 // sessions per simulated campaign
	nullCampaigns = 2000
	fxCampaigns   = 1000
)

// simulate runs one campaign: sessions of one decisive vote per stream,
// each Left with probability pLeft, until decision or horizon. It returns
// the decision (nil if the campaign exhausted its budget undecided) and
// the number of sessions spent.
func simulate(t *testing.T, rng *rand.Rand, pLeft float64) (*Decision, int) {
	t.Helper()
	s, err := New(Config{Alpha: calibAlpha, Streams: calibStreams})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= calibHorizon; n++ {
		votes := make([]Vote, calibStreams)
		for q := 0; q < calibStreams; q++ {
			c := questionnaire.ChoiceRight
			if rng.Float64() < pLeft {
				c = questionnaire.ChoiceLeft
			}
			votes[q] = Vote{PageID: "p1", QuestionID: string(rune('a' + q)), Choice: c}
		}
		if d := s.Fold(votes); d != nil {
			return d, n
		}
	}
	return nil, calibHorizon
}

// Null calibration: campaigns with no true preference must be falsely
// declared decided at most alpha of the time (plus 3-sigma Monte-Carlo
// tolerance). Ville's inequality promises <= alpha at any horizon; the
// realized rate at a finite horizon is typically well below it.
func TestCalibrationNullFalseStopRate(t *testing.T) {
	falseStops := 0
	for c := 0; c < nullCampaigns; c++ {
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		if d, _ := simulate(t, rng, 0.5); d != nil {
			falseStops++
		}
	}
	rate := float64(falseStops) / float64(nullCampaigns)
	// 3-sigma binomial tolerance on top of the design alpha.
	tol := 3 * 0.00487 // sqrt(0.05*0.95/2000)
	if rate > calibAlpha+tol {
		t.Fatalf("realized false-stop rate %.4f (%d/%d) exceeds alpha %.2f + tol %.4f",
			rate, falseStops, nullCampaigns, calibAlpha, tol)
	}
	t.Logf("null calibration: false-stop rate %.4f (%d/%d), alpha %.2f",
		rate, falseStops, nullCampaigns, calibAlpha)
}

// Effect calibration: campaigns with a strong true preference (75% Left,
// roughly the margin the paper's font-size study shows) must decide
// early, decide correctly, and spend far less than the fixed-n horizon.
func TestCalibrationEffectPowerAndCost(t *testing.T) {
	decided, wrong, totalCost := 0, 0, 0
	for c := 0; c < fxCampaigns; c++ {
		rng := rand.New(rand.NewSource(int64(9000 + c)))
		d, n := simulate(t, rng, 0.75)
		totalCost += n
		if d != nil {
			decided++
			if d.Winner != questionnaire.ChoiceLeft {
				wrong++
			}
		}
	}
	power := float64(decided) / float64(fxCampaigns)
	meanCost := float64(totalCost) / float64(fxCampaigns)
	if power < 0.95 {
		t.Fatalf("power %.3f < 0.95 at pLeft=0.75, horizon %d", power, calibHorizon)
	}
	if wrong > 0 {
		t.Fatalf("%d/%d decided campaigns picked the wrong winner", wrong, decided)
	}
	// Cost-savings floor: the sequential engine must use under a third of
	// the fixed-n budget on average for this effect size.
	if meanCost > float64(calibHorizon)/3 {
		t.Fatalf("mean cost %.1f sessions is not < horizon/3 (%d)", meanCost, calibHorizon/3)
	}
	t.Logf("effect calibration: power %.3f, 0 wrong winners, mean cost %.1f vs fixed-n %d (%.1fx saving)",
		power, meanCost, calibHorizon, float64(calibHorizon)/meanCost)
}

// Weak effects must not flip to the wrong side: with pLeft=0.6 the engine
// may or may not decide within the horizon, but every decision it does
// make must name Left.
func TestCalibrationWeakEffectNeverWrong(t *testing.T) {
	decided, wrong := 0, 0
	for c := 0; c < 500; c++ {
		rng := rand.New(rand.NewSource(int64(40000 + c)))
		if d, _ := simulate(t, rng, 0.6); d != nil {
			decided++
			if d.Winner != questionnaire.ChoiceLeft {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Fatalf("%d/%d weak-effect decisions picked the wrong winner", wrong, decided)
	}
	t.Logf("weak effect (pLeft=0.6): %d/500 decided, 0 wrong", decided)
}
