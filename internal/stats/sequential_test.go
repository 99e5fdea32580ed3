package stats

import (
	"math"
	"testing"
)

func TestLogBetaMixtureEBasics(t *testing.T) {
	// n = 0: no data, no evidence.
	if e, err := LogBetaMixtureE(0, 0, 1); err != nil || e != 0 {
		t.Fatalf("LogBetaMixtureE(0,0,1) = %v, %v; want 0, nil", e, err)
	}
	// Uniform mixture, closed form: E_n = 2^n * B(k+1, n-k+1) = 2^n / ((n+1) C(n,k)).
	for _, tc := range []struct {
		k, n int
		want float64
	}{
		{0, 1, 1},                        // 2/2
		{1, 1, 1},                        // 2/2
		{2, 2, 4.0 / 3},                  // 4/(3*1)
		{1, 2, 4.0 / (3 * 2)},            // C(2,1)=2
		{8, 8, 256.0 / 9},                // unanimous
		{4, 8, 256.0 / (9 * 70)},         // dead even
		{10, 10, 1024.0 / 11},            //
		{7, 10, 1024.0 / (11 * 120.0)},   // C(10,7)=120
		{20, 20, math.Pow(2, 20) / 21.0}, //
	} {
		got, err := LogBetaMixtureE(tc.k, tc.n, 1)
		if err != nil {
			t.Fatalf("LogBetaMixtureE(%d,%d,1): %v", tc.k, tc.n, err)
		}
		if math.Abs(got-math.Log(tc.want)) > 1e-9 {
			t.Errorf("LogBetaMixtureE(%d,%d,1) = %v, want log(%v) = %v", tc.k, tc.n, got, tc.want, math.Log(tc.want))
		}
	}
	// Symmetry: k and n-k carry identical evidence against p = 1/2.
	for n := 1; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			a, _ := LogBetaMixtureE(k, n, 1)
			b, _ := LogBetaMixtureE(n-k, n, 1)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("asymmetric evidence: logE(%d,%d)=%v logE(%d,%d)=%v", k, n, a, n-k, n, b)
			}
		}
	}
}

func TestLogBetaMixtureEErrors(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		a    float64
	}{
		{0, -1, 1},
		{-1, 5, 1},
		{6, 5, 1},
		{2, 5, 0},
		{2, 5, -1},
		{2, 5, math.NaN()},
		{2, 5, math.Inf(1)},
	} {
		if _, err := LogBetaMixtureE(tc.k, tc.n, tc.a); err == nil {
			t.Errorf("LogBetaMixtureE(%d,%d,%v): want error", tc.k, tc.n, tc.a)
		}
	}
}

// Under H0 the e-process is a martingale with mean 1: sum over all k of
// P(k|n, 1/2) * E(k, n) must equal 1 exactly.
func TestBetaMixtureEMartingaleMeanOne(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 25, 60} {
		var mean float64
		choose := 1.0 // C(n, k)
		for k := 0; k <= n; k++ {
			logE, err := LogBetaMixtureE(k, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			mean += choose * math.Pow(0.5, float64(n)) * math.Exp(logE)
			choose = choose * float64(n-k) / float64(k+1)
		}
		if math.Abs(mean-1) > 1e-9 {
			t.Errorf("n=%d: E[E_n] = %v, want 1", n, mean)
		}
	}
}

func TestEValuePBound(t *testing.T) {
	if p := EValuePBound(0, 1); p != 1 {
		t.Errorf("no evidence: p = %v, want 1", p)
	}
	if p := EValuePBound(math.Log(20), 1); math.Abs(p-0.05) > 1e-12 {
		t.Errorf("E=20: p = %v, want 0.05", p)
	}
	if p := EValuePBound(math.Log(20), 4); math.Abs(p-0.2) > 1e-12 {
		t.Errorf("E=20, 4 streams: p = %v, want 0.2", p)
	}
	if p := EValuePBound(-5, 1); p != 1 {
		t.Errorf("negative evidence clamps to 1, got %v", p)
	}
	if p := EValuePBound(math.NaN(), 1); p != 1 {
		t.Errorf("NaN evidence clamps to 1, got %v", p)
	}
	if p := EValuePBound(1e6, 3); p != 3*math.Exp(-1e6) {
		t.Errorf("huge evidence: p = %v", p)
	}
	if p := EValuePBound(2, 0); p != math.Exp(-2) {
		t.Errorf("streams<1 treated as 1, got %v", p)
	}
}

func TestSequentialThreshold(t *testing.T) {
	th, err := SequentialThreshold(0.05, 1)
	if err != nil || math.Abs(th-math.Log(20)) > 1e-12 {
		t.Fatalf("threshold(0.05,1) = %v, %v", th, err)
	}
	th4, err := SequentialThreshold(0.05, 4)
	if err != nil || math.Abs(th4-math.Log(80)) > 1e-12 {
		t.Fatalf("threshold(0.05,4) = %v, %v", th4, err)
	}
	for _, alpha := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if _, err := SequentialThreshold(alpha, 1); err == nil {
			t.Errorf("alpha=%v: want error", alpha)
		}
	}
	// Crossing the threshold certifies the p-bound <= alpha.
	if p := EValuePBound(th4, 4); p > 0.05+1e-12 {
		t.Errorf("at-threshold p bound %v exceeds alpha", p)
	}
}

// The running-max construction must make the p bound monotone
// non-increasing along any evidence path, even when raw evidence dips.
func TestPBoundMonotoneUnderRunningMax(t *testing.T) {
	votes := []int{1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1}
	k, n := 0, 0
	maxLogE := 0.0
	prev := 1.0
	for _, v := range votes {
		n++
		k += v
		logE, err := LogBetaMixtureE(k, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if logE > maxLogE {
			maxLogE = logE
		}
		p := EValuePBound(maxLogE, 2)
		if p > prev+1e-15 {
			t.Fatalf("p bound increased: %v -> %v at n=%d", prev, p, n)
		}
		prev = p
	}
}
