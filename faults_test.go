package sinrconn

// Integration tests for the fault-injection seams threaded through the
// public API (WithFaultInjector): injected faults may stall or fail an
// operation, but must NEVER change what a successful operation
// computes — the invariant the serving layer's bit-identical crash
// recovery and fault-free replay rest on.

import (
	"context"
	"errors"
	"testing"
	"time"

	"sinrconn/internal/faults"
)

// TestFaultInjectorResultsUnchanged runs the same construction, and then
// a Join, a Repair and a RepairLinks on it, with and without delay-class
// faults (slow slots, stalled workers) lit at high rates and requires
// identical trees: injection sites on the compute path are observational
// only. Each operation must also reach the slow-slot site, so the injector
// is really threaded through every one of them.
func TestFaultInjectorResultsUnchanged(t *testing.T) {
	pts := uniformPoints(61, 40)
	far := Point{}
	for _, p := range pts {
		far.X, far.Y = max(far.X, p.X+3), max(far.Y, p.Y+3)
	}
	type op struct {
		name string
		run  func(nw *Network, base *Result) (*Result, error)
	}
	ops := []op{
		{"join", func(nw *Network, base *Result) (*Result, error) {
			return nw.Join(bg, base, []Point{far}, WithSeed(3))
		}},
		{"repair", func(nw *Network, base *Result) (*Result, error) {
			return nw.Repair(bg, base, []int{interiorNode(t, base)}, WithSeed(3))
		}},
		{"repair-links", func(nw *Network, base *Result) (*Result, error) {
			return nw.RepairLinks(bg, base, []Link{base.Tree.Up[0].Link}, WithSeed(3))
		}},
	}
	// run returns the Init result followed by each op's result, calling
	// after once the Init and each op have finished.
	run := func(inj faults.Injector, after func(name string)) []*Result {
		t.Helper()
		opts := []Option{}
		if inj != nil {
			opts = append(opts, WithFaultInjector(inj))
		}
		nw, err := Open(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		base, err := nw.Run(context.Background(), PipelineInit, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		after("init")
		out := []*Result{base}
		for _, o := range ops {
			r, err := o.run(nw, base)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			after(o.name)
			out = append(out, r)
		}
		return out
	}
	plan := faults.MustPlan(faults.Spec{
		Seed:  11,
		Delay: 100 * time.Microsecond,
		Rates: map[faults.Site]float64{
			faults.SimSlotSlow:     0.3,
			faults.PoolWorkerStall: 0.3,
		},
	})
	fired := func(site faults.Site) uint64 {
		for _, c := range plan.Counts() {
			if c.Site == site {
				return c.Fired
			}
		}
		return 0
	}
	var slow uint64
	clean := run(nil, func(string) {})
	faulted := run(plan, func(name string) {
		n := fired(faults.SimSlotSlow)
		if n <= slow {
			t.Errorf("%s: slow-slot faults stayed at %d — the injector did not reach its engine", name, n)
		}
		slow = n
	})
	for k := range clean {
		name := "init"
		if k > 0 {
			name = ops[k-1].name
		}
		c, f := clean[k].Tree, faulted[k].Tree
		if c.Root != f.Root || len(c.Up) != len(f.Up) {
			t.Fatalf("%s: tree shape diverged under delay faults: root %d/%d, %d/%d links",
				name, c.Root, f.Root, len(c.Up), len(f.Up))
		}
		for i := range c.Up {
			if c.Up[i] != f.Up[i] {
				t.Fatalf("%s: link %d diverged under delay faults", name, i)
			}
		}
	}
}

// TestFaultInjectorChurnRepairFail drives the churn engine's repair
// failure site at rate 1: every repair attempt — the whole degradation
// ladder, then the rebuild — fails as non-convergence, so the driver
// must surface ErrRetryExhausted rather than loop or lie.
func TestFaultInjectorChurnRepairFail(t *testing.T) {
	plan := faults.MustPlan(faults.Spec{Seed: 5, Rates: map[faults.Site]float64{
		faults.ChurnRepairFail: 1,
	}})
	nw, err := Open(uniformPoints(62, 32), WithFaultInjector(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	_, err = nw.Churn(context.Background(), TraceSpec{Seed: 2, Events: 4, JoinRate: 1, FailRate: 1})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("churn under total repair failure: %v, want ErrRetryExhausted", err)
	}

	// At rate 0 the same trace completes: the site is inert when closed.
	nw2, err := Open(uniformPoints(62, 32), WithFaultInjector(faults.MustPlan(faults.Spec{Seed: 5})))
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Close()
	if _, err := nw2.Churn(context.Background(), TraceSpec{Seed: 2, Events: 4, JoinRate: 1, FailRate: 1}); err != nil {
		t.Fatalf("churn with inert injector: %v", err)
	}
}

// TestFaultInjectorPartialRepairFail lets half the repair attempts fail:
// the degradation ladder must absorb the misses (counting retries) and
// still deliver a correct trace.
func TestFaultInjectorPartialRepairFail(t *testing.T) {
	plan := faults.MustPlan(faults.Spec{Seed: 17, Rates: map[faults.Site]float64{
		faults.ChurnRepairFail: 0.5,
	}})
	nw, err := Open(uniformPoints(63, 36), WithFaultInjector(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	rep, err := nw.Churn(context.Background(), TraceSpec{Seed: 4, Events: 12, JoinRate: 1, FailRate: 1}, WithChurnAudit(true))
	if err != nil {
		t.Fatalf("churn under half repair failure: %v", err)
	}
	if rep.Stats.Retries == 0 {
		t.Fatal("rate-½ repair failures produced zero retries — the site is not wired into the ladder")
	}
}

// TestWithFaultInjectorIsOpenOption pins the option's scope: injection
// is a property of the Network (it must be identical for every run to
// keep replay deterministic), not of a single run.
func TestWithFaultInjectorIsOpenOption(t *testing.T) {
	nw, err := Open(uniformPoints(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	_, err = nw.Run(context.Background(), PipelineInit, WithFaultInjector(faults.Disabled))
	if err == nil {
		t.Fatal("WithFaultInjector accepted as a run option")
	}
}
