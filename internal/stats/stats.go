package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual aggregates of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary. Empty input returns the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String renders "mean ± std [min..max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f [%.2f..%.2f]", s.Mean, s.Std, s.Min, s.Max)
}

// Fit is a least-squares line y ≈ A + B·x with its coefficient of
// determination.
type Fit struct {
	A, B float64
	R2   float64
}

// LinearFit computes the least-squares fit of y on x. Fewer than two points
// yield a zero Fit.
func LinearFit(x, y []float64) Fit {
	n := len(x)
	if n < 2 || len(y) != n {
		return Fit{}
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return Fit{A: sy / fn}
	}
	b := (fn*sxy - sx*sy) / den
	a := (sy - b*sx) / fn
	// R².
	meanY := sy / fn
	var ssTot, ssRes float64
	for i := 0; i < n; i++ {
		pred := a + b*x[i]
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{A: a, B: b, R2: r2}
}

// GrowthExponent fits log y against log x and returns the slope — the
// empirical polynomial degree. Sub-logarithmic growth shows up as an
// exponent near 0, linear growth as 1.
func GrowthExponent(x, y []float64) float64 {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log2(x[i]))
			ly = append(ly, math.Log2(y[i]))
		}
	}
	return LinearFit(lx, ly).B
}

// Table accumulates rows and renders a fixed-width ASCII table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render produces the table as a string with aligned columns.
func (t *Table) Render() string {
	cols := len(t.header)
	widths := make([]int, cols)
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < cols && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	writeRow(t.header)
	for i := 0; i < cols; i++ {
		fmt.Fprintf(&b, "|%s", strings.Repeat("-", widths[i]+2))
	}
	b.WriteString("|\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
