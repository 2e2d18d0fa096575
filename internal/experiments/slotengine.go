package experiments

// E20 ablates the million-node slot engine's two switchable axes —
// aggregate precision (f64/f32) and worker count (serial/parallel) — over
// a dense far-field slot. The Morton pyramid layout is structural (there
// is no row-major engine left to toggle; the drift gate pins it
// bit-identical to the PR-8 kernel instead). Two shape checks are Type 1:
// the worker count must not change a single delivered bit within a
// precision (the pool only re-schedules identical per-listener walks,
// DESIGN.md §12), and the f32 slot's delivery count must stay within the
// joint certified band of the f64 slot's (winners are exact in both, so
// disagreement is bounded to threshold-marginal links). Timing columns
// are informational.

import (
	"context"
	"fmt"
	"math"
	"time"

	mrand "math/rand"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/stats"
	"sinrconn/internal/workload"
)

// E20SlotEngine ablates precision × workers on a dense slot.
func E20SlotEngine(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E20",
		Title: "Slot-engine ablation: far precision × workers",
		Claim: "engineering: the worker pool is a bit-invisible re-schedule; f32 aggregation trades ~1e-7 certificate inflation for halved aggregate bandwidth",
		Table: stats.NewTable("precision", "workers", "ms/slot", "deliveries"),
	}
	r.Pass = true
	// 4096 nodes at the default sweep → 2048 senders per dense slot.
	n := cfg.Sizes[len(cfg.Sizes)-1] * 4
	rng := mrand.New(mrand.NewSource(41))
	pts := workload.JitteredGrid(rng, n, 2.6, 0.8)
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(0.5)
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		r.Pass = false
		return r
	}

	run := func(prec string, workers int) (float64, sim.Stats) {
		var ff sinr.Far = q
		if prec == "f32" {
			ff = q.Prec32()
		}
		power := in.Params().SafePower(4)
		procs := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			procs[i] = &farStepProto{id: i, transmit: i%2 == 0, power: power}
		}
		eng, err := sim.NewEngine(in, procs, sim.Config{Workers: workers, Far: ff})
		if err != nil {
			return math.NaN(), sim.Stats{}
		}
		defer eng.Close()
		eng.Run(2)
		const slots = 6
		start := time.Now()
		eng.Run(slots)
		return float64(time.Since(start).Microseconds()) / 1000 / slots, eng.Stats()
	}

	workers := cfg.Workers
	if workers < 2 {
		workers = 2
	}
	var f64Ref, f32Ref *sim.Stats
	for _, prec := range []string{"f64", "f32"} {
		for _, w := range []int{1, workers} {
			if err := ctx.Err(); err != nil {
				r.Notes = append(r.Notes, err.Error())
				r.Pass = false
				return r
			}
			ms, st := run(prec, w)
			r.Table.AddRow(prec,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.2f", ms),
				fmt.Sprintf("%d", st.Deliveries))
			// Type 1 within a precision: every worker count is
			// bit-identical.
			var ref **sim.Stats
			if prec == "f64" {
				ref = &f64Ref
			} else {
				ref = &f32Ref
			}
			if *ref == nil {
				cp := st
				*ref = &cp
			} else if **ref != st {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"%s workers=%d drifted from its precision's reference: %+v vs %+v",
					prec, w, st, **ref))
				r.Pass = false
			}
		}
	}
	// Cross-precision: winners are exact in both plans, so the delivery
	// counts may differ only on threshold-marginal links — a sliver, not
	// a drift.
	if f64Ref != nil && f32Ref != nil {
		d64, d32 := float64(f64Ref.Deliveries), float64(f32Ref.Deliveries)
		if d64 > 0 && math.Abs(d64-d32) > 0.01*d64 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"f32 deliveries %v diverged more than 1%% from f64's %v", d32, d64))
			r.Pass = false
		}
	}
	r.Notes = append(r.Notes,
		"Morton layout has no off switch: TestMortonLayoutDriftGate pins it bit-identical to the transcribed row-major kernel instead",
		"every row accumulates the pyramid serially and walks it once per listener; the parallel rows split the listeners across the pool",
		"f32 certificate inflation over f64 at this geometry: see DESIGN.md §12.4 (≈1e-7, seven orders under ε = 0.1)")
	return r
}
