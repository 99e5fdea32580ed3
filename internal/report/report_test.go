package report

import (
	"strings"
	"testing"

	"kaleidoscope/internal/stats"
)

func TestCDFPlot(t *testing.T) {
	fast, err := stats.NewECDF([]float64{1, 1.2, 1.4, 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := stats.NewECDF([]float64{3, 4, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := CDFPlot(map[string]*stats.ECDF{"fast": fast, "slow": slow}, 40, 8)
	if err != nil {
		t.Fatalf("CDFPlot: %v", err)
	}
	if !strings.Contains(out, "* = fast") || !strings.Contains(out, "o = slow") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "1.00 |") || !strings.Contains(out, "0.00 |") {
		t.Errorf("y axis missing:\n%s", out)
	}
	// The fast series reaches the top row before the slow one: the top
	// row should contain '*' strictly left of the first 'o'.
	topRow := strings.Split(out, "\n")[0]
	starIdx := strings.IndexByte(topRow, '*')
	oIdx := strings.IndexByte(topRow, 'o')
	if starIdx < 0 || oIdx < 0 || starIdx >= oIdx {
		t.Errorf("top row ordering wrong: %q", topRow)
	}
}

func TestCDFPlotErrors(t *testing.T) {
	if _, err := CDFPlot(nil, 40, 8); err == nil {
		t.Error("no series should fail")
	}
	cdf, _ := stats.NewECDF([]float64{1})
	if _, err := CDFPlot(map[string]*stats.ECDF{"x": cdf}, 5, 8); err == nil {
		t.Error("tiny plot should fail")
	}
	// Single-point series still plots (degenerate x-range handled).
	if _, err := CDFPlot(map[string]*stats.ECDF{"x": cdf}, 20, 5); err != nil {
		t.Errorf("single point: %v", err)
	}
}

func TestArrivalPlot(t *testing.T) {
	hours := []float64{1, 2, 4, 8, 12}
	counts := []int{10, 25, 50, 80, 100}
	out, err := ArrivalPlot(hours, counts, 30, 6)
	if err != nil {
		t.Fatalf("ArrivalPlot: %v", err)
	}
	if !strings.Contains(out, "100 |") {
		t.Errorf("y max missing:\n%s", out)
	}
	if !strings.Contains(out, "12.0h") {
		t.Errorf("x max missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no points drawn")
	}
}

func TestArrivalPlotErrors(t *testing.T) {
	if _, err := ArrivalPlot(nil, nil, 30, 6); err == nil {
		t.Error("empty should fail")
	}
	if _, err := ArrivalPlot([]float64{1}, []int{1, 2}, 30, 6); err == nil {
		t.Error("mismatch should fail")
	}
	if _, err := ArrivalPlot([]float64{1}, []int{1}, 3, 3); err == nil {
		t.Error("tiny plot should fail")
	}
}
