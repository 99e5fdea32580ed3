// Package stats provides the statistical machinery Kaleidoscope's analysis
// pipeline relies on: empirical CDFs, medians and quantiles, the
// two-proportion z-test, Wilson intervals, Kendall's tau, majority votes and
// the e-values behind sequential early stopping.
//
// Everything in this package is deterministic given its inputs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptySample is returned by constructors and tests that need at least
// one observation.
var ErrEmptySample = errors.New("stats: empty sample")

// Median returns the median of xs, interpolating between the two middle
// values for even-length samples. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is not usable; construct one with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the given sample. The sample is
// copied; the caller may mutate xs afterwards.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmptySample
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// Len returns the number of observations behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Min returns the smallest observation.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest observation.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns the (x, F(x)) step points of the ECDF, one per distinct
// observation, suitable for plotting or tabulating a CDF curve.
func (e *ECDF) Points() []Point {
	pts := make([]Point, 0, len(e.sorted))
	n := float64(len(e.sorted))
	for i, x := range e.sorted {
		if i+1 < len(e.sorted) && e.sorted[i+1] == x {
			continue // collapse ties onto the last index
		}
		pts = append(pts, Point{X: x, Y: float64(i+1) / n})
	}
	return pts
}

// Point is a single (x, y) pair on a curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// NormalCDF returns Phi(z), the standard normal cumulative distribution
// function evaluated at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// TwoProportionResult reports the outcome of a two-proportion z-test.
type TwoProportionResult struct {
	P1, P2         float64 // observed proportions
	Z              float64 // test statistic
	PValue         float64 // two-sided p-value
	PValueOneSided float64 // one-sided p-value (what the paper's VWO calculator reports)
}

// Significant reports whether the two-sided p-value is below alpha.
func (r TwoProportionResult) Significant(alpha float64) bool {
	return r.PValue < alpha
}

// String formats the result the way the paper reports it.
func (r TwoProportionResult) String() string {
	return fmt.Sprintf("p1=%.3f p2=%.3f z=%.3f P=%.4g", r.P1, r.P2, r.Z, r.PValue)
}

// TwoProportionTest performs a pooled two-proportion z-test comparing
// successes1/trials1 against successes2/trials2. This is the test behind the
// paper's A/B significance analysis (Fig. 7b/7c): e.g. 3 clicks out of 51
// visitors vs 6 out of 49.
func TwoProportionTest(successes1, trials1, successes2, trials2 int) (TwoProportionResult, error) {
	if trials1 <= 0 || trials2 <= 0 {
		return TwoProportionResult{}, errors.New("stats: trials must be positive")
	}
	if successes1 < 0 || successes1 > trials1 || successes2 < 0 || successes2 > trials2 {
		return TwoProportionResult{}, errors.New("stats: successes out of range")
	}
	p1 := float64(successes1) / float64(trials1)
	p2 := float64(successes2) / float64(trials2)
	pooled := float64(successes1+successes2) / float64(trials1+trials2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(trials1) + 1/float64(trials2)))
	res := TwoProportionResult{P1: p1, P2: p2}
	if se == 0 {
		// Both proportions identical and degenerate (all 0s or all 1s):
		// no evidence of a difference.
		res.PValue = 1
		res.PValueOneSided = 0.5
		return res, nil
	}
	res.Z = (p1 - p2) / se
	res.PValueOneSided = 1 - NormalCDF(math.Abs(res.Z))
	res.PValue = 2 * res.PValueOneSided
	return res, nil
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion with k successes in n trials at the given z (1.96
// for 95%). It behaves far better than the normal approximation at the
// small cohort sizes crowd studies use.
func WilsonInterval(k, n int, z float64) (lo, hi float64, err error) {
	if n <= 0 {
		return 0, 0, errors.New("stats: n must be positive")
	}
	if k < 0 || k > n {
		return 0, 0, errors.New("stats: k out of range")
	}
	if !(z > 0) || math.IsInf(z, 1) {
		return 0, 0, errors.New("stats: z must be positive and finite")
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// KendallTau returns the Kendall rank correlation coefficient (tau-a)
// between two equal-length slices of scores. Agreement between a produced
// ranking and ground truth is measured with this in the rank package's
// ablations.
func KendallTau(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: length mismatch")
	}
	n := len(a)
	if n < 2 {
		return 0, errors.New("stats: need at least two observations")
	}
	var concordant, discordant int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			prod := da * db
			switch {
			case prod > 0:
				concordant++
			case prod < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// MajorityVote returns the most frequent value among votes along with its
// count. Ties are broken toward the value that appears first in the slice,
// keeping the result deterministic. This is the "crowd wisdom" primitive the
// quality-control layer uses as pseudo-ground truth.
func MajorityVote[T comparable](votes []T) (winner T, count int, err error) {
	if len(votes) == 0 {
		return winner, 0, ErrEmptySample
	}
	counts := make(map[T]int, len(votes))
	order := make([]T, 0, len(votes))
	for _, v := range votes {
		if counts[v] == 0 {
			order = append(order, v)
		}
		counts[v]++
	}
	winner = order[0]
	count = counts[winner]
	for _, v := range order[1:] {
		if counts[v] > count {
			winner, count = v, counts[v]
		}
	}
	return winner, count, nil
}
