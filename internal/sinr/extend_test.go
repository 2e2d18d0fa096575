package sinr

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sinrconn/internal/geom"
)

// checkGains fails unless in's gain table holds, for every pair u, v < n,
// bit for bit the entry a fresh instance over the same points builds, and
// the table is symmetric at its own stride.
func checkGains(t *testing.T, label string, in *Instance) {
	t.Helper()
	g, stride := in.GainTableStride()
	n := in.Len()
	if g == nil || stride < n {
		t.Fatalf("%s: table of %d entries at stride %d for %d nodes", label, len(g), stride, n)
	}
	want := MustInstance(append([]geom.Point(nil), in.Points()...), in.Params()).GainTable()
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			a := math.Float64bits(g[v*stride+u])
			if b := math.Float64bits(want[v*n+u]); a != b {
				t.Fatalf("%s: gain[%d][%d] = %v, fresh instance %v", label, v, u, g[v*stride+u], want[v*n+u])
			}
			if b := math.Float64bits(g[u*stride+v]); a != b {
				t.Fatalf("%s: gain[%d][%d] = %v but gain[%d][%d] = %v", label, v, u, g[v*stride+u], u, v, g[u*stride+v])
			}
		}
	}
}

// sharesTable reports whether a and b read one backing gain table.
func sharesTable(a, b *Instance) bool {
	ga, _ := a.GainTableStride()
	gb, _ := b.GainTableStride()
	return len(ga) > 0 && len(gb) > 0 && &ga[0] == &gb[0]
}

func extendPoints(rng *rand.Rand, k int, x0 float64) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + rng.Float64()*20, Y: rng.Float64() * 20}
	}
	return pts
}

// TestExtendMatchesFreshInstance pins the join fast path: an extended
// instance's gain table must be bit-identical to one built from scratch on
// the union point set, for every entry (copied block and new rows alike),
// from a parent whose table was built and from one whose table was not.
func TestExtendMatchesFreshInstance(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		rng := rand.New(rand.NewSource(7))
		base := extendPoints(rng, 40, 0)
		extra := extendPoints(rng, 9, 200)
		p := DefaultParams()
		p.Alpha = alpha
		for _, built := range []bool{true, false} {
			parent := MustInstance(base, p)
			if built {
				parent.GainTable()
			}
			got, err := parent.Extend(extra)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(base)+len(extra) {
				t.Fatalf("alpha %v: extended has %d nodes, want %d", alpha, got.Len(), len(base)+len(extra))
			}
			checkGains(t, "Extend", got)
			if _, stride := got.GainTableStride(); built && stride <= got.Len() {
				t.Errorf("alpha %v: Extend of an exact table left stride %d for %d nodes, want headroom", alpha, stride, got.Len())
			}
		}
	}
}

// TestExtendGrowsInPlace pins the spare-space protocol: a chain of Extends
// writes into one table until its headroom runs out; a branch from a
// mid-chain parent whose spare space a child already claimed copies
// instead, leaving the chain intact; and MoveTo and Shrink of a grown
// table read it at its stride and write exact tables. Every instance's
// table must equal a fresh build over its points, duplicates included.
func TestExtendGrowsInPlace(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 3, 4} {
		rng := rand.New(rand.NewSource(int64(alpha * 11)))
		p := DefaultParams()
		p.Alpha = alpha
		base := MustInstance(extendPoints(rng, 40, 0), p)
		base.GainTable()

		chain := []*Instance{base}
		copies := 0
		for k := 0; k < 14; k++ {
			extra := extendPoints(rng, 1+k%3, 100+10*float64(k))
			if k == 5 {
				extra[0] = base.Point(3) // a duplicate point: +Inf both ways
			}
			tip := chain[len(chain)-1]
			next, err := tip.Extend(extra)
			if err != nil {
				t.Fatal(err)
			}
			if !sharesTable(tip, next) {
				copies++
			}
			chain = append(chain, next)
		}
		// 40 nodes grow to 40 + 1+2+3+… = 68 in 14 steps; stride m + m/8
		// holds ~5 nodes of headroom, so the chain copies a few times but
		// grows in place at most steps.
		if copies < 2 || copies > 7 {
			t.Errorf("alpha %v: %d of 14 Extends copied, want 2..7", alpha, copies)
		}
		mid := chain[4]
		if !sharesTable(mid, chain[5]) {
			t.Fatalf("alpha %v: chain[5] did not grow chain[4] in place", alpha)
		}
		branch, err := mid.Extend(extendPoints(rng, 2, -50))
		if err != nil {
			t.Fatal(err)
		}
		if sharesTable(mid, branch) {
			t.Fatalf("alpha %v: a branch took spare space chain[5] had claimed", alpha)
		}
		for _, in := range chain {
			checkGains(t, "chain", in)
		}
		checkGains(t, "branch", branch)
		tip := chain[len(chain)-1]
		moved, err := tip.MoveTo([]int{0, 45}, []geom.Point{{X: -7, Y: 3}, tip.Point(2)})
		if err != nil {
			t.Fatal(err)
		}
		shrunk, _, err := tip.Shrink([]int{1, 41, 60})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			label string
			in    *Instance
		}{{"MoveTo", moved}, {"Shrink", shrunk}} {
			checkGains(t, d.label, d.in)
			if _, stride := d.in.GainTableStride(); stride != d.in.Len() {
				t.Errorf("alpha %v: %s of a grown table has stride %d for %d nodes, want exact", alpha, d.label, stride, d.in.Len())
			}
		}
	}
}

// TestExtendConcurrentClaim extends one parent with spare space from 8
// goroutines released together. Exactly one child may claim the spare
// space and grow in place; the rest copy. Every child and the parent must
// hold exact gains afterwards. Run with -race: the claimant writes the
// spare space while its siblings copy the parent's block.
func TestExtendConcurrentClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := MustInstance(extendPoints(rng, 48, 0), DefaultParams())
	base.GainTable()
	parent, err := base.Extend(extendPoints(rng, 1, 80))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	extras := make([][]geom.Point, workers)
	for i := range extras {
		extras[i] = extendPoints(rng, 1+i%2, 120+30*float64(i))
	}
	children := make([]*Instance, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			children[i], errs[i] = parent.Extend(extras[i])
		}(i)
	}
	close(start)
	wg.Wait()
	inPlace := 0
	for i, c := range children {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkGains(t, "child", c)
		if sharesTable(parent, c) {
			inPlace++
		}
	}
	if inPlace != 1 {
		t.Errorf("%d children grew the parent's table in place, want exactly 1", inPlace)
	}
	checkGains(t, "parent", parent)
}

// TestExtendEmpty covers the degenerate no-new-points call.
func TestExtendEmpty(t *testing.T) {
	parent := MustInstance([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}, DefaultParams())
	got, err := parent.Extend(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("extended len %d, want 2", got.Len())
	}
}
