package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"one sample q=0", []float64{7}, 0, 7},
		{"one sample q=0.5", []float64{7}, 0.5, 7},
		{"one sample q=1", []float64{7}, 1, 7},
		{"q=0 is the minimum", []float64{1, 2, 3, 4}, 0, 1},
		{"q=1 is the maximum", []float64{1, 2, 3, 4}, 1, 4},
		{"q below range clamps", []float64{1, 2, 3, 4}, -0.5, 1},
		{"q above range clamps", []float64{1, 2, 3, 4}, 1.5, 4},
		{"odd median", []float64{1, 2, 9}, 0.5, 2},
		{"even median interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"p90 of 0..10", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{"interpolated quartile", []float64{10, 20, 30, 40}, 0.25, 17.5},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestPercentileEmptyIsNaN(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1} {
		if v := percentile(nil, q); !math.IsNaN(v) {
			t.Errorf("percentile(empty, %v) = %v, want NaN", q, v)
		}
	}
	if v := median(nil); !math.IsNaN(v) {
		t.Errorf("median(empty) = %v, want NaN", v)
	}
	if v := mean(nil); !math.IsNaN(v) {
		t.Errorf("mean(empty) = %v, want NaN", v)
	}
}

func TestPercentileMonotoneInQ(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := percentile(xs, q)
			if v < prev {
				t.Fatalf("trial %d: percentile fell from %v to %v at q=%v", trial, prev, v, q)
			}
			if v < xs[0] || v > xs[len(xs)-1] {
				t.Fatalf("trial %d: percentile %v at q=%v outside [%v, %v]", trial, v, q, xs[0], xs[len(xs)-1])
			}
			prev = v
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(6, 4); got != 1.5 {
		t.Errorf("ratio(6, 4) = %v, want 1.5", got)
	}
}
