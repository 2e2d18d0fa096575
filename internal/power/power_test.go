package power

import (
	"errors"
	"math"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

func lineInstance(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func TestSolveEmpty(t *testing.T) {
	in := lineInstance(t, 0, 1)
	powers, it, err := Solve(in, nil)
	if err != nil || powers != nil || it != 0 {
		t.Errorf("Solve(empty) = %v, %d, %v", powers, it, err)
	}
}

func TestSolveSingleLink(t *testing.T) {
	in := lineInstance(t, 0, 4)
	p := in.Params()
	links := []sinr.Link{{From: 0, To: 1}}
	powers, it, err := Solve(in, links)
	if err != nil {
		t.Fatal(err)
	}
	if it < 1 {
		t.Errorf("iterations = %d", it)
	}
	// Single link: fixed point is the noise-only requirement slack·βN·d^α.
	want := slack * p.Beta * p.Noise * math.Pow(4, p.Alpha)
	if math.Abs(powers[0]-want)/want > 1e-6 {
		t.Errorf("power = %v, want %v", powers[0], want)
	}
	ok, _ := in.SINRFeasible(links, powers)
	if !ok {
		t.Error("solved powers not feasible")
	}
}

func TestSolveTwoDistantLinks(t *testing.T) {
	in := lineInstance(t, 0, 1, 500, 501)
	links := []sinr.Link{{From: 0, To: 1}, {From: 2, To: 3}}
	powers, _, err := Solve(in, links)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := in.SINRFeasible(links, powers)
	if !ok {
		t.Error("solved powers not feasible")
	}
	// The same powers as a per-link assignment are feasible in the
	// affectance formulation too.
	pl := table{}
	for i, l := range links {
		if powers[i] <= 0 {
			t.Errorf("power for %v = %v", l, powers[i])
		}
		pl[l] = powers[i]
	}
	if !in.Feasible(links, pl) {
		t.Error("solved assignment infeasible under affectance")
	}
}

func TestSolveCrossedLinksInfeasible(t *testing.T) {
	// Links 0→2 and 3→1 on the line 0,1,2,3: each sender is closer to the
	// other link's receiver than that link's own sender is — no power
	// vector can satisfy both.
	in := lineInstance(t, 0, 1, 2, 3)
	links := []sinr.Link{{From: 0, To: 2}, {From: 3, To: 1}}
	_, _, err := Solve(in, links)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveColocatedInterfererInfeasible(t *testing.T) {
	// Sender of link B sits exactly on receiver of link A.
	pts := []geom.Point{{X: 0}, {X: 5}, {X: 5}, {X: 9}}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	links := []sinr.Link{{From: 0, To: 1}, {From: 2, To: 3}}
	_, _, err := Solve(in, links)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveWithSlack(t *testing.T) {
	in := lineInstance(t, 0, 2, 300, 302)
	links := []sinr.Link{{From: 0, To: 1}, {From: 2, To: 3}}
	powers, _, err := Solve(in, links)
	if err != nil {
		t.Fatal(err)
	}
	// Converged powers give every link SINR ≥ slack·β.
	txs := []sinr.Tx{{Sender: 0, Power: powers[0]}, {Sender: 2, Power: powers[1]}}
	for _, l := range links {
		if got := in.SINR(txs, l); got < slack*in.Params().Beta-1e-6 {
			t.Errorf("SINR of %v under slack = %v", l, got)
		}
	}
}

func TestSolveChainOfManyLinks(t *testing.T) {
	// Links along an exponential chain are mutually feasible with power
	// control (interferers are far relative to link lengths).
	xs := []float64{0, 1, 3, 7, 15, 31, 63, 127}
	in := lineInstance(t, xs...)
	var links []sinr.Link
	for i := 0; i+1 < len(xs); i += 2 {
		links = append(links, sinr.Link{From: i, To: i + 1})
	}
	powers, it, err := Solve(in, links)
	if err != nil {
		t.Fatalf("err = %v after %d iterations", err, it)
	}
	ok, _ := in.SINRFeasible(links, powers)
	if !ok {
		t.Error("chain powers not feasible")
	}
}

func TestSolveSlowConvergenceVerified(t *testing.T) {
	// Two mirrored links whose cross gains put the spectral radius of the
	// normalized gain matrix at 0.95: the dynamics still change powers by
	// ~0.95^maxIter ≫ tol after maxIter rounds, so Solve takes the
	// budget-exhausted path and returns the final vector only because
	// SINRFeasible accepts it.
	p := sinr.DefaultParams()
	gap := math.Pow(slack*p.Beta/0.95, 1/p.Alpha) - 1
	in := lineInstance(t, 0, 1, 1+gap, 2+gap)
	links := []sinr.Link{{From: 0, To: 1}, {From: 3, To: 2}}
	powers, it, err := Solve(in, links)
	if err != nil {
		t.Fatalf("err = %v after %d iterations", err, it)
	}
	if it != maxIter {
		t.Errorf("iterations = %d, want the budget %d", it, maxIter)
	}
	if ok, _ := in.SINRFeasible(links, powers); !ok {
		t.Error("Solve returned infeasible powers without error")
	}
}

// table is a per-link power assignment, the form Solve's output takes.
type table map[sinr.Link]float64

func (a table) Power(_ *sinr.Instance, l sinr.Link) float64 { return a[l] }
func (a table) Name() string                                { return "arbitrary" }
