package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"kaleidoscope/internal/netsim"
)

// TestPaperOutputsGolden pins the text of every reproduced figure and
// ablation, at the scales and seeds the tests above run them: a change that
// moves any reproduced number fails here instead of slipping into
// EXPERIMENTS.md. A change meant to move one updates its digest to the one
// the failure prints, and says why in the same commit.
func TestPaperOutputsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		text   func(rng *rand.Rand) ([]string, error)
		digest string
	}{
		{"fig4-fig5", 1, func(rng *rand.Rand) ([]string, error) {
			res, err := RunFig4(Fig4Config{FontSizesPt: []int{10, 12, 14, 18, 22}, CrowdWorkers: 30, InLabWorkers: 15}, rng)
			if err != nil {
				return nil, err
			}
			fig5, err := BuildFig5(res)
			if err != nil {
				return nil, err
			}
			return []string{FormatFig4(res), FormatFig5(fig5)}, nil
		}, "0d1fb266844e845716cb0a3bd7843f1b1ab0156ab14d2d7cfc0d20c8baf0f745"},
		{"fig7-fig8", 4, func(rng *rand.Rand) ([]string, error) {
			res, err := RunExpandButton(ExpandButtonConfig{KaleidoscopeWorkers: 40}, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatFig7a(res), FormatFig7b(res), FormatFig7c(res), FormatFig8(res)}, nil
		}, "90bc78f645ade3f24ed6fd7bfbd5166247fe18a5eedf6a98a57cf6be550caee1"},
		{"fig9", 5, func(rng *rand.Rand) ([]string, error) {
			res, err := RunFig9(Fig9Config{Workers: 40}, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatFig9(res)}, nil
		}, "2c329b91222c2bb63a64e6612c82c0fe695806d2055e89cf0d09c2dd0d7e4045"},
		{"sort-reduction", 7, func(rng *rand.Rand) ([]string, error) {
			res, err := RunSortReduction(5, 50, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatSortReduction(res)}, nil
		}, "058cacb9242eb438400ae0e25f2f348e497c792d86663808e76de62b3e02ede8"},
		{"qc-ablation", 9, func(rng *rand.Rand) ([]string, error) {
			res, err := RunQCAblation(120, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatQCAblation(res)}, nil
		}, "0e31b23d96237d4c9629f3cfe57788008a71427d44a5f771dfff0924b9a9ac85"},
		{"local-replay", 11, func(rng *rand.Rand) ([]string, error) {
			res, err := RunLocalReplay(3, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatLocalReplay(res)}, nil
		}, "c9ffad55fc1441df430e994f4b95068ab0df7803d17a02a9310ef8ce3a66f0d6"},
		{"presentation", 13, func(rng *rand.Rand) ([]string, error) {
			res, err := RunPresentation(400, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatPresentation(res)}, nil
		}, "3de4a6b83f198f6d01d24122e7eb94426eebad45208e3583c29e57989124e6c5"},
		{"sorted-study", 15, func(rng *rand.Rand) ([]string, error) {
			res, err := RunSortedStudy(25, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatSortedStudy(res)}, nil
		}, "83ffa8d892c6b7ca4789602eaacb838b2b9674d2d52ac9b1d932477f8e099512"},
		{"protocol-study", 17, func(rng *rand.Rand) ([]string, error) {
			res, err := RunProtocolStudy(netsim.ProfileSatell, 30, rng)
			if err != nil {
				return nil, err
			}
			return []string{FormatProtocolStudy(res)}, nil
		}, "70da3261149d4b8318cc5d6646238c2c95e37e9e977fc82e20d568aaa6f52e3f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text, err := tc.text(rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(strings.Join(text, "\n")))
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("%s output moved: sha256 %s, pinned %s\n%s", tc.name, got, tc.digest, strings.Join(text, "\n"))
			}
		})
	}
}
