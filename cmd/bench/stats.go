package main

import (
	"math"
	"sort"
)

// mean returns the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 when xs is empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), the definition the benchmark's acceptance rule is stated in. A
// single value is its own three quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile of xs as a
// share of their median (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentileIndex is the nearest-rank index of percentile p (0 < p ≤ 100)
// in a sorted sample of n values: the smallest index whose value is at
// least p percent of the sample.
func percentileIndex(p float64, n int) int {
	if n <= 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank-1, 0), n-1)
}

// percentile returns percentile p of an ascending sample (0 when empty).
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[percentileIndex(p, len(asc))]
}

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, and that number of samples.
// The median is the floor: with too few samples for any tail it is
// returned with whatever lies beyond it.
func highestPercentile(n int) (p float64, beyond int) {
	p = tailLadder[0]
	beyond = n - 1 - percentileIndex(p, n)
	for _, q := range tailLadder[1:] {
		b := n - 1 - percentileIndex(q, n)
		if b < minBeyond {
			break
		}
		p, beyond = q, b
	}
	return p, max(beyond, 0)
}

// Verdicts of a bound check.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "regression"
)

// boundCheck compares the runs of a change (b) with the runs of its parent
// (a) for one metric. Every run of b reading better than every run of a is
// "better". Otherwise, when either side's quartile spread exceeds the
// bound, the medians cannot show a change of that size either way and the
// pair is "unresolved"; when b's median is worse than a's by more than
// bound (a share of a's median) it is a "regression"; else "ok".
func boundCheck(a, b []float64, bound float64, higherBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	sa, sb := sorted(a), sorted(b)
	if higherBetter && sb[0] > sa[len(sa)-1] || !higherBetter && sb[len(sb)-1] < sa[0] {
		return verdictBetter
	}
	if spread(a) > bound || spread(b) > bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegression
	}
	return verdictOK
}
