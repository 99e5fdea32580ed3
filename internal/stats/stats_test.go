package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(q=%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile([]float64{10, 20}, 0.5); !almostEqual(got, 15, 1e-12) {
		t.Errorf("interpolated median = %v, want 15", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestECDF(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("NewECDF(empty) should error")
	}
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("ECDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.Len() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("Len/Min/Max = %d/%v/%v, want 4/1/3", e.Len(), e.Min(), e.Max())
	}
	pts := e.Points()
	if len(pts) != 3 {
		t.Fatalf("Points len = %d, want 3 (ties collapsed)", len(pts))
	}
	if pts[1] != (Point{X: 2, Y: 0.75}) {
		t.Errorf("Points[1] = %+v, want {2 0.75}", pts[1])
	}
	if pts[2] != (Point{X: 3, Y: 1}) {
		t.Errorf("Points[2] = %+v, want {3 1}", pts[2])
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.At(lo) <= e.At(hi) && e.At(e.Max()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalCDF(t *testing.T) {
	tests := []struct {
		z, want, tol float64
	}{
		{0, 0.5, 1e-12},
		{1.96, 0.975, 1e-3},
		{-1.96, 0.025, 1e-3},
		{5, 1, 1e-5},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.z); !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tt.z, got, tt.want)
		}
	}
}

// TestTwoProportionPaperABTest replicates the paper's Fig. 7(b) analysis:
// A/B testing with 3 clicks out of 51 (A) vs 6 out of 49 (B) is NOT
// significant; the VWO one-sided p-value the paper cites is ~0.133.
func TestTwoProportionPaperABTest(t *testing.T) {
	res, err := TwoProportionTest(3, 51, 6, 49)
	if err != nil {
		t.Fatalf("TwoProportionTest: %v", err)
	}
	if !almostEqual(res.PValueOneSided, 0.133, 0.01) {
		t.Errorf("one-sided P = %v, want ~0.133 (paper Fig. 7b)", res.PValueOneSided)
	}
	if res.Significant(0.05) {
		t.Error("A/B test with 100 visitors should not be significant, as in the paper")
	}
}

// TestTwoProportionPaperKaleidoscope replicates Fig. 7(c)/Fig. 8 question C:
// 46 prefer the variant vs 14 the original — strongly significant.
func TestTwoProportionPaperKaleidoscope(t *testing.T) {
	res, err := TwoProportionTest(46, 100, 14, 100)
	if err != nil {
		t.Fatalf("TwoProportionTest: %v", err)
	}
	if res.PValue > 1e-5 {
		t.Errorf("two-sided P = %v, want < 1e-5 (paper reports 6.8e-8 at 99%% confidence)", res.PValue)
	}
	if !res.Significant(0.01) {
		t.Error("Kaleidoscope result should be significant at 99% confidence")
	}
}

func TestTwoProportionErrors(t *testing.T) {
	if _, err := TwoProportionTest(1, 0, 1, 5); err == nil {
		t.Error("zero trials should error")
	}
	if _, err := TwoProportionTest(6, 5, 1, 5); err == nil {
		t.Error("successes > trials should error")
	}
	if _, err := TwoProportionTest(-1, 5, 1, 5); err == nil {
		t.Error("negative successes should error")
	}
}

func TestTwoProportionDegenerate(t *testing.T) {
	res, err := TwoProportionTest(0, 10, 0, 10)
	if err != nil {
		t.Fatalf("TwoProportionTest: %v", err)
	}
	if res.PValue != 1 {
		t.Errorf("degenerate P = %v, want 1", res.PValue)
	}
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	tau, err := KendallTau(a, a)
	if err != nil {
		t.Fatalf("KendallTau: %v", err)
	}
	if tau != 1 {
		t.Errorf("tau(identical) = %v, want 1", tau)
	}
	rev := []float64{5, 4, 3, 2, 1}
	tau, err = KendallTau(a, rev)
	if err != nil {
		t.Fatalf("KendallTau: %v", err)
	}
	if tau != -1 {
		t.Errorf("tau(reversed) = %v, want -1", tau)
	}
	if _, err := KendallTau(a, a[:2]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

func TestMajorityVote(t *testing.T) {
	winner, count, err := MajorityVote([]string{"left", "right", "left", "same", "left"})
	if err != nil {
		t.Fatalf("MajorityVote: %v", err)
	}
	if winner != "left" || count != 3 {
		t.Errorf("winner=%q count=%d, want left/3", winner, count)
	}
	// Tie: first-seen wins, deterministically.
	winner, count, err = MajorityVote([]string{"b", "a", "a", "b"})
	if err != nil {
		t.Fatalf("MajorityVote: %v", err)
	}
	if winner != "b" || count != 2 {
		t.Errorf("tie winner=%q count=%d, want b/2", winner, count)
	}
	if _, _, err := MajorityVote[string](nil); err == nil {
		t.Error("empty should error")
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		v := Quantile(xs, qq)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return v >= min && v <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonInterval(t *testing.T) {
	// Canonical check: 46/100 at 95% gives roughly [0.366, 0.557].
	lo, hi, err := WilsonInterval(46, 100, 1.96)
	if err != nil {
		t.Fatalf("WilsonInterval: %v", err)
	}
	if !almostEqual(lo, 0.366, 0.01) || !almostEqual(hi, 0.557, 0.01) {
		t.Errorf("interval = [%v, %v], want ~[0.366, 0.557]", lo, hi)
	}
	// Degenerate edges stay within [0,1].
	lo, hi, err = WilsonInterval(0, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Errorf("zero-success interval = [%v, %v]", lo, hi)
	}
	lo, hi, err = WilsonInterval(10, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo <= 0 {
		t.Errorf("all-success interval = [%v, %v]", lo, hi)
	}
	if _, _, err := WilsonInterval(1, 0, 1.96); err == nil {
		t.Error("n=0 should fail")
	}
	if _, _, err := WilsonInterval(11, 10, 1.96); err == nil {
		t.Error("k>n should fail")
	}
	if _, _, err := WilsonInterval(1, 10, 0); err == nil {
		t.Error("z=0 should fail")
	}
}

func TestWilsonIntervalContainsP(t *testing.T) {
	f := func(k, n uint8) bool {
		nn := int(n%100) + 1
		kk := int(k) % (nn + 1)
		lo, hi, err := WilsonInterval(kk, nn, 1.96)
		if err != nil {
			return false
		}
		p := float64(kk) / float64(nn)
		return lo <= p+1e-9 && p <= hi+1e-9 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
