// Package report renders Kaleidoscope's analysis artifacts as plain-text
// charts: CDF step curves (Fig. 5) and cumulative arrival curves
// (Fig. 7a). The renderers are deterministic and width-bounded, so
// experiment output can be diffed across runs and embedded in terminal
// reports.
package report

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"kaleidoscope/internal/stats"
)

// CDFPlot renders one or more ECDFs as an ASCII line plot of the given
// size. Each series is drawn with its own glyph; the legend maps glyphs to
// names.
func CDFPlot(series map[string]*stats.ECDF, width, height int) (string, error) {
	if len(series) == 0 {
		return "", errors.New("report: no series")
	}
	if width < 10 || height < 4 {
		return "", errors.New("report: plot too small")
	}
	// Shared x-range across series.
	minX, maxX := math.Inf(1), math.Inf(-1)
	names := make([]string, 0, len(series))
	for name, cdf := range series {
		names = append(names, name)
		if cdf.Min() < minX {
			minX = cdf.Min()
		}
		if cdf.Max() > maxX {
			maxX = cdf.Max()
		}
	}
	sortStrings(names)
	if maxX <= minX {
		maxX = minX + 1
	}
	glyphs := []byte{'*', 'o', '+', 'x', '@', '%'}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range names {
		cdf := series[name]
		glyph := glyphs[si%len(glyphs)]
		for col := 0; col < width; col++ {
			x := minX + (maxX-minX)*float64(col)/float64(width-1)
			y := cdf.At(x) // 0..1
			row := height - 1 - int(math.Round(y*float64(height-1)))
			grid[row][col] = glyph
		}
	}
	var b strings.Builder
	for r, row := range grid {
		yVal := 1 - float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "     +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "      %-*.3g%*.3g\n", width/2, minX, width-width/2, maxX)
	for si, name := range names {
		fmt.Fprintf(&b, "      %c = %s\n", glyphs[si%len(glyphs)], name)
	}
	return b.String(), nil
}

// ArrivalPlot renders a cumulative count curve (elapsed hours on x, count
// on y) as an ASCII plot.
func ArrivalPlot(hours []float64, counts []int, width, height int) (string, error) {
	if len(hours) != len(counts) || len(hours) == 0 {
		return "", errors.New("report: bad arrival series")
	}
	if width < 10 || height < 4 {
		return "", errors.New("report: plot too small")
	}
	maxHours := hours[len(hours)-1]
	if maxHours <= 0 {
		maxHours = 1
	}
	maxCount := counts[len(counts)-1]
	if maxCount <= 0 {
		maxCount = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i := range hours {
		col := int(math.Round(hours[i] / maxHours * float64(width-1)))
		row := height - 1 - int(math.Round(float64(counts[i])/float64(maxCount)*float64(height-1)))
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = '*'
		}
	}
	var b strings.Builder
	for r, row := range grid {
		countVal := float64(maxCount) * (1 - float64(r)/float64(height-1))
		fmt.Fprintf(&b, "%5.0f |%s\n", countVal, string(row))
	}
	fmt.Fprintf(&b, "      +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "       0h%*s\n", width-2, fmt.Sprintf("%.1fh", maxHours))
	return b.String(), nil
}

// sortStrings is a tiny insertion sort (n is the series count, <= 6).
func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
