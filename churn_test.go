package sinrconn

// Tests for the continuous-churn engine (churn.go). The central gate is
// metamorphic: a tree maintained by churn-then-repair must satisfy the
// exact invariant battery a from-scratch construction satisfies — after
// EVERY event (WithChurnAudit) — and its final membership must admit a
// clean rebuild (the "rebuild on survivors" oracle).

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sinrconn/internal/workload"
)

// mixedTrace is the reference workload: all five event kinds enabled.
func mixedTrace(seed int64, events int) TraceSpec {
	return TraceSpec{
		Seed:       seed,
		Events:     events,
		JoinRate:   1,
		FailRate:   1.2,
		BurstRate:  0.25,
		ShowerRate: 0.5,
		MoveRate:   1,
		Mobility:   MobilityWaypoint,
	}
}

// checkChurnReport asserts internal consistency of a finished run.
func checkChurnReport(t *testing.T, trace TraceSpec, rep *ChurnReport) {
	t.Helper()
	st := rep.Stats
	if st.Events != trace.Events {
		t.Fatalf("processed %d events, trace has %d", st.Events, trace.Events)
	}
	if got := st.Joins + st.DampedJoins + st.Fails + st.Bursts + st.Showers + st.Moves; got != st.Events {
		t.Fatalf("kind counters sum to %d, want %d: %+v", got, st.Events, st)
	}
	if st.SlotsUsed <= 0 || st.PeakScheduleLength <= 0 {
		t.Fatalf("implausible channel accounting: %+v", st)
	}
	if err := rep.Final.Tree.Verify(); err != nil {
		t.Fatalf("final tree: %v", err)
	}
	if rep.Final.Tree.NumNodes > 1 && rep.Final.Metrics.AggregationLatency <= 0 {
		t.Fatalf("final latency not filled: %+v", rep.Final.Metrics)
	}
	for _, e := range rep.Soft {
		if !errors.Is(e, ErrDamped) && !errors.Is(e, ErrNotConverged) {
			t.Fatalf("untyped soft error: %v", e)
		}
	}
}

func TestChurnBasic(t *testing.T) {
	nw, err := Open(uniformPoints(50, 48))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	trace := mixedTrace(7, 40)
	rep, err := nw.Churn(context.Background(), trace, WithChurnAudit(true))
	if err != nil {
		t.Fatal(err)
	}
	checkChurnReport(t, trace, rep)
	if rep.Stats.IncrementalRepairs == 0 {
		t.Fatal("no event was resolved incrementally")
	}
	// The final result is live on a derived Network: an epoch must work.
	n := rep.Final.Tree.inst.Len()
	vals := make([]int64, n)
	var want int64
	for _, v := range rep.Final.Tree.inner.Nodes {
		vals[v] = int64(v)
		want += int64(v)
	}
	out, err := rep.Final.Network().Aggregate(bg, rep.Final, vals, SumAgg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != want {
		t.Fatalf("post-churn aggregate = %d, want %d", out.Value, want)
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() *ChurnReport {
		nw, err := Open(uniformPoints(51, 40))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		rep, err := nw.Churn(context.Background(), mixedTrace(3, 30))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	at, bt := a.Final.Tree, b.Final.Tree
	if at.Root != bt.Root || len(at.Up) != len(bt.Up) {
		t.Fatalf("tree shape diverged: root %d/%d, %d/%d links",
			at.Root, bt.Root, len(at.Up), len(bt.Up))
	}
	for i := range at.Up {
		if at.Up[i] != bt.Up[i] {
			t.Fatalf("link %d diverged: %+v vs %+v", i, at.Up[i], bt.Up[i])
		}
	}
}

// TestChurnMetamorphicGate runs the scenario matrix through the engine
// with the per-event audit on, then rebuilds from scratch over the final
// survivors and checks the rebuilt tree offers the same guarantees
// (spans the same membership, passes the same validators). Full mode:
// every matrix workload × 3 seeds; short mode: 3 workloads × 1 seed.
func TestChurnMetamorphicGate(t *testing.T) {
	specs := workload.Matrix()
	seeds := []int64{1, 2, 3}
	n, events := 56, 30
	if testing.Short() {
		specs, seeds, n, events = specs[:3], seeds[:1], 40, 18
	}
	for _, spec := range specs {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name, seed), func(t *testing.T) {
				nw, err := Open(facadePoints(spec, seed, n))
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				trace := mixedTrace(seed*101, events)
				rep, err := nw.Churn(context.Background(), trace, WithChurnAudit(true))
				if err != nil {
					t.Fatal(err)
				}
				checkChurnReport(t, trace, rep)
				churnRebuildOracle(t, rep)
			})
		}
	}
}

// churnRebuildOracle rebuilds from scratch over the churned run's final
// survivor positions and checks equivalence of guarantees: the rebuild
// must span exactly the survivors and pass the full validator battery,
// just as the churned tree already did.
func churnRebuildOracle(t *testing.T, rep *ChurnReport) {
	t.Helper()
	inst, inner := rep.Final.Tree.inst, rep.Final.Tree.inner
	pts := make([]Point, 0, len(inner.Nodes))
	for _, v := range inner.Nodes {
		p := inst.Point(v)
		pts = append(pts, Point{X: p.X, Y: p.Y})
	}
	fresh, err := Open(pts)
	if err != nil {
		t.Fatalf("rebuild open: %v", err)
	}
	defer fresh.Close()
	var res *Result
	for attempt := int64(0); ; attempt++ {
		res, err = fresh.Run(context.Background(), PipelineInit, WithSeed(1000+attempt))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrNotConverged) || attempt >= 3 {
			t.Fatalf("rebuild on survivors: %v", err)
		}
	}
	if res.Tree.NumNodes != len(inner.Nodes) {
		t.Fatalf("rebuild spans %d nodes, churned tree %d", res.Tree.NumNodes, len(inner.Nodes))
	}
	if err := res.Tree.Verify(); err != nil {
		t.Fatalf("rebuild verify: %v", err)
	}
}

func TestChurnCityGridMobility(t *testing.T) {
	nw, err := Open(uniformPoints(52, 40))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	trace := TraceSpec{
		Seed: 9, Events: 25,
		JoinRate: 0.5, FailRate: 0.8, MoveRate: 2,
		Mobility: MobilityCityGrid, MobilitySpeed: 2,
	}
	rep, err := nw.Churn(context.Background(), trace, WithChurnAudit(true))
	if err != nil {
		t.Fatal(err)
	}
	checkChurnReport(t, trace, rep)
	if rep.Stats.Moves == 0 {
		t.Fatal("city-grid trace produced no move events")
	}
}

// TestChurnFlapDamping drives a deployment small enough that an
// aggressive damper quarantines it after the first failures: subsequent
// joins must be refused with the typed ErrDamped (surfaced in Soft, not
// fatal), members must be muted during repairs, and the run must still
// complete — damping bounds repair work instead of livelocking on the
// flapping region.
func TestChurnFlapDamping(t *testing.T) {
	nw, err := Open(uniformPoints(53, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	trace := TraceSpec{
		Seed: 5, Events: 40,
		JoinRate: 1.5, FailRate: 2, BurstRate: 0.5,
		BurstRadius: 6,
	}
	rep, err := nw.Churn(context.Background(), trace,
		WithFlapDamping(2, 1e9, 1e9, 100)) // one region, trips forever
	if err != nil {
		t.Fatal(err)
	}
	checkChurnReport(t, trace, rep)
	if rep.Stats.DampedJoins == 0 {
		t.Fatalf("no join was ever refused: %+v", rep.Stats)
	}
	damped := 0
	for _, e := range rep.Soft {
		if errors.Is(e, ErrDamped) {
			damped++
		}
	}
	if damped != rep.Stats.DampedJoins {
		t.Fatalf("%d ErrDamped soft errors for %d damped joins", damped, rep.Stats.DampedJoins)
	}
	if rep.Stats.MutedPeak == 0 {
		t.Fatalf("quarantine never muted anyone: %+v", rep.Stats)
	}
}

func TestChurnDampingDisabled(t *testing.T) {
	nw, err := Open(uniformPoints(54, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	trace := TraceSpec{Seed: 5, Events: 30, JoinRate: 1.5, FailRate: 2, BurstRate: 0.5, BurstRadius: 6}
	rep, err := nw.Churn(context.Background(), trace, WithFlapDamping(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DampedJoins != 0 || rep.Stats.MutedPeak != 0 {
		t.Fatalf("disabled damper still acted: %+v", rep.Stats)
	}
}

func TestChurnValidation(t *testing.T) {
	nw, err := Open(uniformPoints(55, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx := context.Background()
	cases := []struct {
		name  string
		trace TraceSpec
		opts  []ChurnOption
	}{
		{"no events", TraceSpec{Seed: 1, FailRate: 1}, nil},
		{"all-zero rates", TraceSpec{Seed: 1, Events: 5}, nil},
		{"negative rate", TraceSpec{Seed: 1, Events: 5, FailRate: -1}, nil},
		{"move without mobility", TraceSpec{Seed: 1, Events: 5, MoveRate: 1}, nil},
		{"drift budget ≤ 1", TraceSpec{Seed: 1, Events: 5, FailRate: 1},
			[]ChurnOption{WithDriftBudget(1)}},
		{"zero retries", TraceSpec{Seed: 1, Events: 5, FailRate: 1},
			[]ChurnOption{WithChurnRetries(0)}},
		{"negative damping", TraceSpec{Seed: 1, Events: 5, FailRate: 1},
			[]ChurnOption{WithFlapDamping(-1, 0, 0, 0)}},
	}
	for _, c := range cases {
		if _, err := nw.Churn(ctx, c.trace, c.opts...); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestChurnCanceledContext(t *testing.T) {
	nw, err := Open(uniformPoints(56, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.Churn(ctx, mixedTrace(1, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled churn returned %v", err)
	}
}

func TestChurnClosedNetwork(t *testing.T) {
	nw, err := Open(uniformPoints(57, 16))
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	if _, err := nw.Churn(context.Background(), mixedTrace(1, 5)); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("closed network churn returned %v", err)
	}
}

func TestMobilityModelString(t *testing.T) {
	for m, want := range map[MobilityModel]string{
		MobilityNone: "none", MobilityWaypoint: "waypoint", MobilityCityGrid: "citygrid",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// --- Repair edge regressions (session API) ---

// TestRepairDuplicateFailures: a failure list naming the same node twice
// must behave exactly like the deduplicated list.
func TestRepairDuplicateFailures(t *testing.T) {
	pts := uniformPoints(58, 32)
	res := build(t, pts, PipelineInit, WithSeed(1))
	victims := []int{3, 7}
	if res.Tree.Root == 3 || res.Tree.Root == 7 {
		victims = []int{4, 8}
	}
	dup := []int{victims[0], victims[1], victims[0], victims[0]}
	repaired, err := res.Network().Repair(bg, res, dup, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.NumNodes != 30 {
		t.Fatalf("duplicated failure list removed %d nodes, want 2", 32-repaired.Tree.NumNodes)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairAfterJoinRemapping: nodes joined through a derived Network
// keep their (remapped) indices; failing a mix of original and joined
// nodes through the derived handle must remove exactly those nodes.
func TestRepairAfterJoinRemapping(t *testing.T) {
	nw, err := Open(uniformPoints(59, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx := context.Background()
	res, err := nw.Run(ctx, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := nw.Join(ctx, res, []Point{{X: 300, Y: 0}, {X: 303, Y: 2}, {X: 306, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tree.NumNodes != 27 {
		t.Fatalf("grown tree spans %d nodes", grown.Tree.NumNodes)
	}
	// Fail one original node and one joined node (index ≥ 24) through the
	// derived handle; indices must be interpreted in the merged space.
	orig := 5
	if grown.Tree.Root == orig {
		orig = 6
	}
	joined := 25
	if grown.Tree.Root == joined {
		joined = 26
	}
	repaired, err := grown.Network().Repair(ctx, grown, []int{orig, joined})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Tree.NumNodes != 25 {
		t.Fatalf("repaired tree spans %d nodes, want 25", repaired.Tree.NumNodes)
	}
	if err := repaired.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
	par := repaired.Tree.Parent()
	for _, v := range []int{orig, joined} {
		if _, ok := par[v]; ok || repaired.Tree.Root == v {
			t.Fatalf("failed node %d still in tree", v)
		}
	}
	// The OTHER joined nodes survive with their merged-space indices.
	seen := map[int]bool{repaired.Tree.Root: true}
	for c := range par {
		seen[c] = true
	}
	for v := 24; v < 27; v++ {
		if v == joined {
			continue
		}
		if !seen[v] {
			t.Fatalf("surviving joined node %d dropped by repair", v)
		}
	}
}

// TestRepairChainThroughDerived: repair applied on a result that is
// itself the output of a repair on a join — three generations of derived
// Networks — keeps indices and structure coherent.
func TestRepairChainThroughDerived(t *testing.T) {
	nw, err := Open(uniformPoints(60, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx := context.Background()
	res, err := nw.Run(ctx, PipelineInit)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := nw.Join(ctx, res, []Point{{X: 250, Y: 0}, {X: 253, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := 20 // first joined node
	if g1.Tree.Root == v1 {
		v1 = 21
	}
	g2, err := g1.Network().Repair(ctx, g1, []int{v1})
	if err != nil {
		t.Fatal(err)
	}
	v2 := 2
	if g2.Tree.Root == v2 {
		v2 = 3
	}
	g3, err := g2.Network().Repair(ctx, g2, []int{v2})
	if err != nil {
		t.Fatal(err)
	}
	if g3.Tree.NumNodes != 20 {
		t.Fatalf("generation-3 tree spans %d nodes, want 20", g3.Tree.NumNodes)
	}
	if err := g3.Tree.Verify(); err != nil {
		t.Fatal(err)
	}
}
