package crowd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzMix throws arbitrary archetype fractions at the mix validator and the
// archetype draw: fractions that do not sum to 1, negative parts, NaN/Inf,
// and the empty mix must all be rejected with ErrBadMix, while any mix that
// passes validation must draw only defined archetypes — and draw itself must
// never panic, even on garbage mixes.
func FuzzMix(f *testing.F) {
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)         // InLabMix
	f.Add(0.62, 0.22, 0.08, 0.08, 0.0, 0.0)     // TrustedCrowdMix
	f.Add(0.30, 0.20, 0.08, 0.07, 0.15, 0.20)   // CampaignCrowdMix
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)         // empty mix
	f.Add(0.5, 0.0, 0.0, 0.0, 0.0, 0.0)         // under-normalized
	f.Add(1.5, -0.5, 0.0, 0.0, 0.0, 0.0)        // negative part, sum 1
	f.Add(-1.0, 2.0, 0.0, 0.0, 0.0, 0.0)        // negative part, sum 1
	f.Add(math.NaN(), 0.5, 0.5, 0.0, 0.0, 0.0)  // NaN fraction
	f.Add(math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0) // Inf fraction
	f.Add(0.2, 0.2, 0.2, 0.2, 0.2, 1e-9)        // just over 1
	f.Add(0.9995, 0.0005, 0.0, 0.0, 0.0, 0.0)   // inside tolerance
	f.Fuzz(func(t *testing.T, d, c, h, x, s, g float64) {
		mix := Mix{Diligent: d, Casual: c, Hasty: h, Distracted: x, Surveyor: s, TaskDriven: g}
		rng := rand.New(rand.NewSource(42))

		sum := d + c + h + x + s + g
		wantValid := sum > 0.999 && sum < 1.001 &&
			d >= 0 && c >= 0 && h >= 0 && x >= 0 && s >= 0 && g >= 0
		if mix.valid() != wantValid {
			t.Fatalf("valid() = %v, want %v for %+v (sum %v)", mix.valid(), wantValid, mix, sum)
		}

		pop, err := NewPopulation(8, mix, false, rng)
		if !wantValid {
			if !errors.Is(err, ErrBadMix) {
				t.Fatalf("NewPopulation(%+v) err = %v, want ErrBadMix", mix, err)
			}
		} else if err != nil {
			t.Fatalf("NewPopulation(%+v) failed on a valid mix: %v", mix, err)
		} else {
			for _, w := range pop.Workers {
				if w.Archetype < Diligent || w.Archetype > TaskDriven {
					t.Fatalf("drew undefined archetype %d", w.Archetype)
				}
				if w.Archetype.String() == "invalid" {
					t.Fatalf("archetype %d has no name", w.Archetype)
				}
			}
		}

		// draw must never panic, even for mixes validation rejects.
		for i := 0; i < 32; i++ {
			if a := mix.draw(rng); a < Diligent || a > TaskDriven {
				t.Fatalf("draw returned undefined archetype %d", a)
			}
		}

		// RecruitWorker shares the validation path.
		if w, err := RecruitWorker(9999, mix, true, rng); wantValid {
			if err != nil || w == nil {
				t.Fatalf("RecruitWorker on valid mix: %v", err)
			}
		} else if !errors.Is(err, ErrBadMix) {
			t.Fatalf("RecruitWorker err = %v, want ErrBadMix", err)
		}
	})
}
