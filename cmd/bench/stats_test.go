package main

import (
	"math"
	"testing"
)

func TestMeanMedian(t *testing.T) {
	for _, c := range []struct {
		xs           []float64
		mean, median float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 4},
		{[]float64{3, 1, 2}, 2, 2},
		{[]float64{4, 1, 3, 2}, 2.5, 2.5},
		{[]float64{10, 1, 1}, 4, 1},
	} {
		if got := mean(c.xs); got != c.mean {
			t.Errorf("mean(%v) = %v, want %v", c.xs, got, c.mean)
		}
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the definition the acceptance rule is stated in.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 10, 4},
		{90, 10, 8},
		{100, 10, 9},
		{1, 10, 0},
		{50, 1, 0},
		{99.9, 1000, 998},
		{99.99, 300000, 299969},
	} {
		if got := percentileIndex(c.p, c.n); got != c.want {
			t.Errorf("percentileIndex(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(asc, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{0, 50, 0},
		{5, 50, 2},
		{100, 90, 10},
		{999, 90, 99},
		{1000, 99, 10},
		{300000, 99.99, 30},
	} {
		p, beyond := highestPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("highestPercentile(%d) = p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestBoundCheck(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name         string
		a, b         []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same", steady, steady, 0.1, false, verdictOK},
		{"worse within bound", steady, []float64{105, 106, 104, 105, 105}, 0.1, false, verdictOK},
		{"worse beyond bound", steady, []float64{120, 121, 119, 120, 120}, 0.1, false, verdictRegression},
		{"higher is better", steady, []float64{80, 81, 79, 80, 80}, 0.1, true, verdictRegression},
		{"better in every run", steady, []float64{80, 81, 79, 80, 80}, 0.1, false, verdictBetter},
		{"noisy parent", []float64{60, 140, 100, 80, 120}, steady, 0.1, false, verdictUnresolved},
		{"noisy change", steady, []float64{60, 140, 100, 80, 120}, 0.1, false, verdictUnresolved},
		{"noisy but better everywhere", []float64{200, 300, 250}, []float64{10, 150, 90}, 0.1, false, verdictBetter},
		{"no runs", nil, steady, 0.1, false, verdictUnresolved},
	} {
		if got := boundCheck(c.a, c.b, c.bound, c.higherBetter); got != c.want {
			t.Errorf("%s: boundCheck = %s, want %s", c.name, got, c.want)
		}
	}
}
