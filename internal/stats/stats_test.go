package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 10})
	if s.Median != 2.5 {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	if got := Summarize([]float64{1, 3}).String(); !strings.Contains(got, "±") {
		t.Errorf("String = %q", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	f := LinearFit(x, y)
	if math.Abs(f.A-1) > 1e-9 || math.Abs(f.B-2) > 1e-9 || math.Abs(f.R2-1) > 1e-9 {
		t.Errorf("Fit = %+v", f)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if f := LinearFit([]float64{1}, []float64{2}); f.B != 0 {
		t.Errorf("single-point fit = %+v", f)
	}
	// Vertical data: identical x.
	f := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.B != 0 || math.Abs(f.A-2) > 1e-9 {
		t.Errorf("vertical fit = %+v", f)
	}
	if f := LinearFit([]float64{1, 2}, []float64{1}); f != (Fit{}) {
		t.Errorf("mismatched input fit = %+v", f)
	}
}

func TestLinearFitShiftInvariance(t *testing.T) {
	f := func(shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 1e3)
		x := []float64{1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = 2*x[i] + shift
		}
		fit := LinearFit(x, y)
		return math.Abs(fit.B-2) < 1e-6 && math.Abs(fit.A-shift) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrowthExponent(t *testing.T) {
	// Quadratic data has exponent 2.
	x := []float64{1, 2, 4, 8}
	y := []float64{1, 4, 16, 64}
	if got := GrowthExponent(x, y); math.Abs(got-2) > 1e-9 {
		t.Errorf("exponent = %v", got)
	}
	// Logarithmic data has exponent well below 1.
	x = []float64{4, 16, 64, 256, 1024}
	y = make([]float64, len(x))
	for i := range x {
		y[i] = math.Log2(x[i])
	}
	if got := GrowthExponent(x, y); got > 0.6 {
		t.Errorf("log data exponent = %v, want < 0.6", got)
	}
	// Zero/negative entries are skipped, not fatal.
	if got := GrowthExponent([]float64{0, 2, 4}, []float64{1, 2, 4}); math.IsNaN(got) {
		t.Error("NaN exponent")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("n", "slots", "ratio")
	tb.AddRow(32, 100, 1.5)
	tb.AddRow(1024, 2000, 2.25)
	out := tb.Render()
	for _, want := range []string{"n", "slots", "ratio", "1024", "2.25", "|---"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("line count = %d", len(lines))
	}
	// Columns align: all lines equal length.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned line %q", l)
		}
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	out := tb.Render()
	if !strings.Contains(out, "only") {
		t.Errorf("Render = %q", out)
	}
}
