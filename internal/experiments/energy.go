package experiments

import (
	"context"
	"fmt"
	"math"

	"sinrconn"
	"sinrconn/internal/core"
	"sinrconn/internal/stats"
)

// E13Energy compares the construction energy and the per-epoch aggregation
// energy of the pipelines. The paper does not analyze energy, but the
// oblivious-vs-arbitrary power trade-off has an energy face: mean power
// spends less per slot on short links than round-power broadcasts, and the
// Section-8 trees amortize their (energy-hungry) construction over every
// subsequent epoch.
func E13Energy(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E13",
		Title: "Energy accounting (construction vs per-epoch)",
		Claim: "library extension: per-epoch aggregation energy is orders of magnitude below construction energy, so refined trees amortize",
		Table: stats.NewTable("n", "init build energy", "TVC build energy", "epoch energy (TVC tree)", "build/epoch ratio"),
	}
	pass := true
	for _, n := range cfg.Sizes {
		var initE, tvcE, epochE []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(4100*n+s), n)
			ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				pass = false
				continue
			}
			initE = append(initE, ires.Stats.Energy)
			tres, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: channel(int64(s))},
			})
			if err != nil {
				pass = false
				continue
			}
			// TreeViaCapacity energy ≈ its inner Init runs; approximate via
			// construction slots ratio is crude, so measure the epoch
			// directly and report builds from the stats we have.
			values := make([]int64, in.Len())
			for i := range values {
				values[i] = 1
			}
			out, err := core.RunAggregation(ctx, in, tres.Tree, values, sinrconn.SumAgg, channel(0))
			if err != nil {
				pass = false
				continue
			}
			epochE = append(epochE, out.Energy)
			// Build energy proxy for TVC: epoch energy × construction
			// slots / schedule slots is not measurable distributedly;
			// instead reuse Init's measured energy scaled by the slot
			// ratio (documented approximation).
			scale := float64(tres.ConstructionSlots) / math.Max(1, float64(ires.SlotsUsed))
			tvcE = append(tvcE, ires.Stats.Energy*scale)
		}
		ie := stats.Summarize(initE).Mean
		te := stats.Summarize(tvcE).Mean
		ee := stats.Summarize(epochE).Mean
		ratio := 0.0
		if ee > 0 {
			ratio = te / ee
		}
		r.Table.AddRow(n, fmt.Sprintf("%.3g", ie), fmt.Sprintf("%.3g", te),
			fmt.Sprintf("%.3g", ee), fmt.Sprintf("%.1f", ratio))
		if ee >= ie {
			pass = false // one epoch must be far cheaper than construction
		}
	}
	r.Pass = pass
	return r
}

// E14PhysicalEpoch executes a physical converge-cast epoch on every
// pipeline's tree across the n sweep — the end-to-end check that the
// schedules the theorems promise actually carry data over the channel.
func E14PhysicalEpoch(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E14",
		Title: "Physical converge-cast epochs",
		Claim: "Definition 1 made physical: every pipeline's schedule carries a full aggregation over the simulated channel",
		Table: stats.NewTable("n", "init tree ok", "mean TVC ok", "arbitrary TVC ok"),
	}
	pass := true
	for _, n := range cfg.Sizes {
		okInit, okMean, okArb := 0, 0, 0
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(4300*n+s), n)
			values := make([]int64, in.Len())
			for i := range values {
				values[i] = int64(i)
			}
			if ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))}); err == nil {
				if _, err := core.RunAggregation(ctx, in, ires.Tree, values, sinrconn.SumAgg, channel(0)); err == nil {
					okInit++
				}
			}
			if tres, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantMean, Init: core.InitConfig{Channel: channel(int64(s))},
			}); err == nil {
				if _, err := core.RunAggregation(ctx, in, tres.Tree, values, sinrconn.SumAgg, channel(0)); err == nil {
					okMean++
				}
			}
			if tres, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: channel(int64(s))},
			}); err == nil {
				if _, err := core.RunAggregation(ctx, in, tres.Tree, values, sinrconn.SumAgg, channel(0)); err == nil {
					okArb++
				}
			}
		}
		r.Table.AddRow(n, fmt.Sprintf("%d/%d", okInit, cfg.Seeds),
			fmt.Sprintf("%d/%d", okMean, cfg.Seeds),
			fmt.Sprintf("%d/%d", okArb, cfg.Seeds))
		if okInit != cfg.Seeds || okMean != cfg.Seeds || okArb != cfg.Seeds {
			pass = false
		}
	}
	r.Pass = pass
	return r
}
