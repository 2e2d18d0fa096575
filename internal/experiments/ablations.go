package experiments

import (
	"context"
	"fmt"
	"math"

	"sinrconn/internal/core"
	"sinrconn/internal/power"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/sparsity"
	"sinrconn/internal/stats"
)

// A1BroadcastProb sweeps the Section 6 broadcast probability p. Too small
// wastes slots (nobody talks); too large wastes slots (everybody collides).
// The default 0.25 sits in the flat valley between the two failure modes.
func A1BroadcastProb(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "A1",
		Title: "Ablation: broadcast probability p",
		Claim: "Init slot count is U-shaped in p; the default 0.25 sits in the valley",
		Table: stats.NewTable("p", "slots", "safety rounds used", "converged"),
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	type cell struct {
		p     float64
		slots float64
	}
	var cells []cell
	for _, p := range []float64{0.03, 0.1, 0.25, 0.45} {
		var slots []float64
		extra := 0
		converged := 0
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(3100*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{
				BroadcastProb: p, Channel: channel(int64(s)),
			})
			if err != nil {
				continue
			}
			converged++
			slots = append(slots, float64(res.SlotsUsed))
			if res.Rounds > res.LadderRounds {
				extra += res.Rounds - res.LadderRounds
			}
		}
		m := stats.Summarize(slots).Mean
		r.Table.AddRow(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.0f", m),
			extra, fmt.Sprintf("%d/%d", converged, cfg.Seeds))
		cells = append(cells, cell{p: p, slots: m})
	}
	// The default (index 2) must not be the worst setting.
	worst := 0.0
	for _, c := range cells {
		if c.slots > worst {
			worst = c.slots
		}
	}
	r.Pass = len(cells) == 4 && cells[2].slots < worst
	r.Notes = append(r.Notes,
		fmt.Sprintf("default p=0.25 uses %.0f slots; worst setting uses %.0f", cells[2].slots, worst))
	return r
}

// A2SlotPairsPerRound sweeps λ (slot-pairs per round = λ·log₂n). Small λ
// under-provisions rounds and falls back on safety rounds; large λ wastes
// slots linearly.
func A2SlotPairsPerRound(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "A2",
		Title: "Ablation: slot-pairs per round (λ)",
		Claim: "small λ trades ladder slots for safety rounds; large λ wastes slots linearly",
		Table: stats.NewTable("λ", "slots", "rounds", "ladder rounds"),
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	var slotCol []float64
	for _, lambda := range []float64{1, 2, 4, 8} {
		var slots, rounds []float64
		ladder := 0
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(3300*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{
				Lambda: lambda, Channel: channel(int64(s)),
			})
			if err != nil {
				continue
			}
			slots = append(slots, float64(res.SlotsUsed))
			rounds = append(rounds, float64(res.Rounds))
			ladder = res.LadderRounds
		}
		m := stats.Summarize(slots).Mean
		r.Table.AddRow(fmt.Sprintf("%.0f", lambda), fmt.Sprintf("%.0f", m),
			fmt.Sprintf("%.1f", stats.Summarize(rounds).Mean), ladder)
		slotCol = append(slotCol, m)
	}
	// λ=8 must cost more raw slots than λ=2 (linear waste regime visible).
	r.Pass = len(slotCol) == 4 && slotCol[3] > slotCol[1]
	return r
}

// A3DistrCapTau sweeps the Distr-Cap admission threshold τ: yield rises
// with τ, but past the feasibility regime the Foschini–Miljanic solver
// starts failing, which is exactly why DefaultDistrTau = 1.5.
func A3DistrCapTau(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "A3",
		Title: "Ablation: Distr-Cap admission threshold τ",
		Claim: "selection yield grows with τ until power-control feasibility starts breaking",
		Table: stats.NewTable("τ", "mean |T′|", "power-solvable"),
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	var yields []float64
	for _, tau := range []float64{0.4, 0.8, 1.5, 3.0} {
		total := 0
		solvable := 0
		runs := 0
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(3500*n+s), n)
			ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			sub := core.LowDegreeSubset(ires.Tree, 0)
			links := make([]sinr.Link, len(sub))
			for i, tl := range sub {
				links[i] = tl.L
			}
			d := core.DistrCap(in, links, core.DistrCapConfig{Tau: tau, Seed: int64(s), Repeats: 3})
			runs++
			total += len(d.Selected)
			if _, _, err := power.Solve(in, d.Selected); err == nil {
				solvable++
			}
		}
		y := float64(total) / math.Max(1, float64(runs))
		yields = append(yields, y)
		r.Table.AddRow(fmt.Sprintf("%.1f", tau), fmt.Sprintf("%.1f", y),
			fmt.Sprintf("%d/%d", solvable, runs))
	}
	// Yield must be monotone-ish increasing from τ=0.4 to τ=1.5.
	r.Pass = len(yields) == 4 && yields[2] > yields[0]
	return r
}

// A4DegreeCap sweeps the low-degree cap ρ of Theorem 13: tiny ρ strips
// links (low retention), large ρ lets sparsity grow back toward ψ(T).
func A4DegreeCap(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "A4",
		Title: "Ablation: degree cap ρ for T(M)",
		Claim: "retention grows with ρ while ψ(T(M)) approaches ψ(T); ρ=8 keeps both healthy",
		Table: stats.NewTable("ρ", "retention", "ψ(T(M))"),
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	var rets []float64
	for _, rho := range []int{2, 4, 8, 16} {
		var ret, psi []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(3700*n+s), n)
			ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			ret = append(ret, core.RetentionFraction(ires.Tree, rho))
			sub := core.LowDegreeSubset(ires.Tree, rho)
			links := make([]sinr.Link, len(sub))
			for i, tl := range sub {
				links[i] = tl.L
			}
			psi = append(psi, float64(sparsity.MeasureAtScales(in, links)))
		}
		mr := stats.Summarize(ret).Mean
		rets = append(rets, mr)
		r.Table.AddRow(rho, fmt.Sprintf("%.2f", mr),
			fmt.Sprintf("%.1f", stats.Summarize(psi).Mean))
	}
	// Retention must be monotone in ρ and high at the default.
	mono := true
	for i := 1; i < len(rets); i++ {
		if rets[i] < rets[i-1]-1e-9 {
			mono = false
		}
	}
	r.Pass = mono && rets[2] > 0.8
	return r
}

// A5DropRobustness injects reception failures: the safety loop must keep
// Init converging to a valid tree even at high drop rates, at a slot cost
// that grows with the drop probability.
func A5DropRobustness(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "A5",
		Title: "Ablation: fading robustness (drop injection)",
		Claim: "the safety loop keeps Init correct under injected reception failures",
		Table: stats.NewTable("drop prob", "converged", "valid", "slots"),
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	pass := true
	var slots0 float64
	for _, drop := range []float64{0, 0.15, 0.3, 0.5} {
		converged, valid := 0, 0
		var slots []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(3900*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{
				Channel: sim.Config{Seed: int64(s), DropProb: drop, Pool: pool()},
			})
			if err != nil {
				continue
			}
			converged++
			slots = append(slots, float64(res.SlotsUsed))
			bt := res.Tree
			if bt.Validate() == nil && bt.StronglyConnected() &&
				bt.ValidateOrdering() == nil && bt.ValidatePerSlotFeasible(in) == nil {
				valid++
			}
		}
		m := stats.Summarize(slots).Mean
		if drop == 0 {
			slots0 = m
		}
		r.Table.AddRow(fmt.Sprintf("%.2f", drop),
			fmt.Sprintf("%d/%d", converged, cfg.Seeds),
			fmt.Sprintf("%d/%d", valid, cfg.Seeds),
			fmt.Sprintf("%.0f", m))
		if converged != cfg.Seeds || valid != converged {
			pass = false
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("baseline (drop=0) slot cost: %.0f", slots0))
	r.Pass = pass
	return r
}
