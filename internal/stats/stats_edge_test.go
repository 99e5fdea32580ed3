package stats

import (
	"math"
	"testing"
)

// Satellite coverage for the degenerate corners of the hypothesis-test
// helpers the earlystop engine leans on: zero trials, out-of-range
// successes, all-success / all-failure tallies, and non-finite
// parameters. Every accepted input must produce finite, in-range output;
// every rejected input must error rather than return NaN.

func TestTwoProportionTestEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		k1, n1, k2, n2 int
		wantErr        bool
		wantP          float64 // checked when >= 0 and no error
	}{
		{"zero trials left", 0, 0, 1, 10, true, -1},
		{"zero trials right", 1, 10, 0, 0, true, -1},
		{"zero trials both", 0, 0, 0, 0, true, -1},
		{"negative trials", 0, -5, 1, 10, true, -1},
		{"k over n left", 11, 10, 1, 10, true, -1},
		{"k over n right", 1, 10, 11, 10, true, -1},
		{"negative k", -1, 10, 1, 10, true, -1},
		{"all success both", 10, 10, 10, 10, false, 1},
		{"all failure both", 0, 10, 0, 10, false, 1},
		{"single trial each same", 1, 1, 1, 1, false, 1},
		{"single trial each opposite", 1, 1, 0, 1, false, -1},
		{"identical mid proportions", 5, 10, 5, 10, false, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := TwoProportionTest(tc.k1, tc.n1, tc.k2, tc.n2)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %+v", res)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if math.IsNaN(res.PValue) || res.PValue < 0 || res.PValue > 2 {
				t.Fatalf("p-value out of range: %+v", res)
			}
			if math.IsNaN(res.Z) || math.IsNaN(res.PValueOneSided) {
				t.Fatalf("NaN statistic: %+v", res)
			}
			if tc.wantP >= 0 && math.Abs(res.PValue-tc.wantP) > 1e-12 {
				t.Fatalf("p = %v, want %v", res.PValue, tc.wantP)
			}
		})
	}
}

func TestWilsonIntervalEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		k, n    int
		z       float64
		wantErr bool
	}{
		{"zero n", 0, 0, 1.96, true},
		{"negative n", 0, -1, 1.96, true},
		{"k over n", 3, 2, 1.96, true},
		{"negative k", -1, 2, 1.96, true},
		{"zero z", 1, 2, 0, true},
		{"negative z", 1, 2, -1.96, true},
		{"NaN z", 1, 2, math.NaN(), true},
		{"infinite z", 1, 2, math.Inf(1), true},
		{"all success", 10, 10, 1.96, false},
		{"all failure", 0, 10, 1.96, false},
		{"single trial success", 1, 1, 1.96, false},
		{"single trial failure", 0, 1, 1.96, false},
		{"huge but finite z", 5, 10, 1e8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi, err := WilsonInterval(tc.k, tc.n, tc.z)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got [%v, %v]", lo, hi)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if math.IsNaN(lo) || math.IsNaN(hi) {
				t.Fatalf("NaN bounds: [%v, %v]", lo, hi)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("bounds out of order or range: [%v, %v]", lo, hi)
			}
			p := float64(tc.k) / float64(tc.n)
			if p < lo-1e-12 || p > hi+1e-12 {
				t.Fatalf("point estimate %v outside [%v, %v]", p, lo, hi)
			}
		})
	}
}
