package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sinrconn/internal/core"
	"sinrconn/internal/geom"
	"sinrconn/internal/power"
	"sinrconn/internal/schedule"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/sparsity"
	"sinrconn/internal/stats"
	"sinrconn/internal/workload"
)

// Config scales the experiment sweeps.
type Config struct {
	// Seeds is the number of trials per sweep cell (default 3).
	Seeds int
	// Sizes is the n sweep (default {32, 64, 128, 256}).
	Sizes []int
	// DeltaExps is the Δ sweep as exponents: Δ = 2^e (default {8, 12, 16, 20}).
	DeltaExps []int
	// ChainN is the node count used for Δ sweeps (default 48).
	ChainN int
}

func (c *Config) defaults() {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{32, 64, 128, 256}
	}
	if len(c.DeltaExps) == 0 {
		c.DeltaExps = []int{8, 12, 16, 20}
	}
	if c.ChainN <= 0 {
		c.ChainN = 48
	}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{Seeds: 2, Sizes: []int{24, 48}, DeltaExps: []int{8, 14}, ChainN: 24}
}

// Report is one experiment's output.
type Report struct {
	// ID is the experiment identifier (E1…E18, A1…A5).
	ID string
	// Title names the claim under test.
	Title string
	// Claim quotes the paper bound being reproduced.
	Claim string
	// Table holds the measured rows.
	Table *stats.Table
	// Notes carries derived quantities (fits, ratios).
	Notes []string
	// Pass is the shape-check verdict.
	Pass bool
}

// Render formats the report for the terminal / EXPERIMENTS.md.
func (r Report) Render() string {
	s := fmt.Sprintf("## %s — %s\n\nClaim: %s\n\n%s\n", r.ID, r.Title, r.Claim, r.Table.Render())
	for _, n := range r.Notes {
		s += "- " + n + "\n"
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return s + fmt.Sprintf("- shape check: **%s**\n", verdict)
}

// Entry is one experiment of the registry.
type Entry struct {
	// ID is the table identifier: E… for a claim of the paper, A… for a
	// design-choice ablation.
	ID string
	// Run executes the experiment under cfg.
	Run func(ctx context.Context, cfg Config) Report
}

// Registry lists every experiment once, in the order EXPERIMENTS.md prints
// them: the paper's claims E1–E18, then the ablations A1–A5. The paper's
// constants optimize provability; the ablations show how the practical
// defaults were chosen and how sensitive the system is to them.
func Registry() []Entry {
	return []Entry{
		{"E1", E1InitSlots},
		{"E2", E2BiTreeValidity},
		{"E3", E3DegreeTail},
		{"E4", E4Sparsity},
		{"E5", E5LowDegreeFilter},
		{"E6", E6MeanReschedule},
		{"E7", E7Iterations},
		{"E8", E8ArbitraryPower},
		{"E9", E9MeanPower},
		{"E10", E10Crossover},
		{"E11", E11Latency},
		{"E12", E12CapacityRatio},
		{"E13", E13Energy},
		{"E14", E14PhysicalEpoch},
		{"E15", E15SessionMatrix},
		{"E17", E17Quadtree},
		{"E18", E18Churn},
		{"A1", A1BroadcastProb},
		{"A2", A2SlotPairsPerRound},
		{"A3", A3DistrCapTau},
		{"A4", A4DegreeCap},
		{"A5", A5DropRobustness},
	}
}

// pool is the NumCPU-worker pool every engine of the experiments borrows,
// as a session's engines borrow its pool. It is made on first use and
// lives as long as the process.
var pool = sync.OnceValue(func() *sim.Pool { return sim.NewPool(0) })

// channel is the channel of an experiment's engines: drop-free, seeded
// with seed, on the shared pool.
func channel(seed int64) sim.Config { return sim.Config{Seed: seed, Pool: pool()} }

// uniformInst builds a uniform instance with min distance 1.
func uniformInst(seed int64, n int) *sinr.Instance {
	rng := rand.New(rand.NewSource(seed))
	return sinr.MustInstance(workload.UniformDensity(rng, n, 0.15), sinr.DefaultParams())
}

func chainInst(n int, delta float64) *sinr.Instance {
	return sinr.MustInstance(workload.ChainForDelta(n, delta), sinr.DefaultParams())
}

// E1InitSlots measures Theorem 2: Init finishes in O(log Δ · log n) slots.
// The table sweeps n on uniform instances and Δ on chains; the normalized
// column slots/(log Δ·log n) must stay bounded while raw slots grow.
func E1InitSlots(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E1",
		Title: "Init construction time",
		Claim: "Theorem 2: bi-tree computed in O(log Δ · log n) slots",
		Table: stats.NewTable("workload", "n", "Δ", "slots", "slots/(log Δ·log n)"),
	}
	var ns, slots []float64
	var ratios []float64
	for _, n := range cfg.Sizes {
		var cell []float64
		var delta float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(100*n+s), n)
			delta = in.Delta()
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				r.Notes = append(r.Notes, "ERROR: "+err.Error())
				return r
			}
			cell = append(cell, float64(res.SlotsUsed))
		}
		mean := stats.Summarize(cell).Mean
		norm := mean / (math.Log2(math.Max(2, delta)) * math.Log2(float64(n)))
		r.Table.AddRow("uniform", n, fmt.Sprintf("%.0f", delta), fmt.Sprintf("%.0f", mean), norm)
		ns = append(ns, float64(n))
		slots = append(slots, mean)
		ratios = append(ratios, norm)
	}
	for _, e := range cfg.DeltaExps {
		delta := math.Exp2(float64(e))
		in := chainInst(cfg.ChainN, delta)
		var cell []float64
		for s := 0; s < cfg.Seeds; s++ {
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				r.Notes = append(r.Notes, "ERROR: "+err.Error())
				return r
			}
			cell = append(cell, float64(res.SlotsUsed))
		}
		mean := stats.Summarize(cell).Mean
		norm := mean / (math.Log2(in.Delta()) * math.Log2(float64(cfg.ChainN)))
		r.Table.AddRow("chain", cfg.ChainN, fmt.Sprintf("2^%d", e), fmt.Sprintf("%.0f", mean), norm)
		ratios = append(ratios, norm)
	}
	exp := stats.GrowthExponent(ns, slots)
	r.Notes = append(r.Notes,
		fmt.Sprintf("slots vs n growth exponent = %.2f (want ≪ 1: polylogarithmic)", exp))
	rs := stats.Summarize(ratios)
	r.Notes = append(r.Notes,
		fmt.Sprintf("normalized ratio spread = [%.2f, %.2f] (want bounded)", rs.Min, rs.Max))
	r.Pass = exp < 0.75 && rs.Max/math.Max(rs.Min, 1e-9) < 8
	return r
}

// E2BiTreeValidity verifies the correctness half of Theorem 2 on every
// workload: spanning, strongly connected, ordered, per-slot feasible.
func E2BiTreeValidity(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E2",
		Title: "Bi-tree validity across workloads",
		Claim: "Theorem 2: output is a strongly connected bi-tree with a feasible ordered schedule",
		Table: stats.NewTable("workload", "n", "trials", "valid"),
	}
	pass := true
	n := cfg.Sizes[len(cfg.Sizes)-1]
	for _, spec := range workload.Standard() {
		valid := 0
		for s := 0; s < cfg.Seeds; s++ {
			rng := rand.New(rand.NewSource(int64(300 + s)))
			in := sinr.MustInstance(spec.Gen(rng, n), sinr.DefaultParams())
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			bt := res.Tree
			if bt.Validate() == nil && bt.StronglyConnected() &&
				bt.ValidateOrdering() == nil && bt.ValidatePerSlotFeasible(in) == nil {
				valid++
			}
		}
		r.Table.AddRow(spec.Name, n, cfg.Seeds, valid)
		if valid != cfg.Seeds {
			pass = false
		}
	}
	r.Pass = pass
	return r
}

// E3DegreeTail measures Theorem 7: P(deg ≥ d) ≤ e^(-p²d/8), so the max
// degree is O(log n) and the empirical tail decays geometrically.
func E3DegreeTail(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E3",
		Title: "Node degree distribution",
		Claim: "Theorem 7: exponential degree tail; max degree O(log n) w.h.p.",
		Table: stats.NewTable("n", "max deg", "mean deg", "P(deg≥4)", "P(deg≥8)", "maxdeg/log₂n"),
	}
	worstNorm := 0.0
	tailOK := true
	for _, n := range cfg.Sizes {
		var maxDegs []float64
		var meanDegs []float64
		tail4, tail8, total := 0, 0, 0
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(500*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			deg := res.Tree.Degrees()
			sum := 0
			md := 0
			for _, d := range deg {
				sum += d
				total++
				if d >= 4 {
					tail4++
				}
				if d >= 8 {
					tail8++
				}
				if d > md {
					md = d
				}
			}
			maxDegs = append(maxDegs, float64(md))
			meanDegs = append(meanDegs, float64(sum)/float64(len(deg)))
		}
		maxMean := stats.Summarize(maxDegs).Mean
		norm := maxMean / math.Log2(float64(n))
		if norm > worstNorm {
			worstNorm = norm
		}
		p4 := float64(tail4) / float64(total)
		p8 := float64(tail8) / float64(total)
		if p8 > p4 {
			tailOK = false
		}
		r.Table.AddRow(n, fmt.Sprintf("%.1f", maxMean),
			fmt.Sprintf("%.2f", stats.Summarize(meanDegs).Mean),
			fmt.Sprintf("%.3f", p4), fmt.Sprintf("%.3f", p8), norm)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("worst maxdeg/log₂n = %.2f (want O(1))", worstNorm))
	r.Pass = worstNorm < 4 && tailOK
	return r
}

// E4Sparsity measures Theorem 11: the Init tree is O(log n)-sparse.
func E4Sparsity(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E4",
		Title: "Sparsity of the Init tree",
		Claim: "Theorem 11: T is O(log n)-sparse",
		Table: stats.NewTable("n", "ψ(T)", "ψ/log₂n"),
	}
	worst := 0.0
	for _, n := range cfg.Sizes {
		var psis []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(700*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			psis = append(psis, float64(sparsity.MeasureAtScales(in, res.Tree.Links())))
		}
		mean := stats.Summarize(psis).Mean
		norm := mean / math.Log2(float64(n))
		if norm > worst {
			worst = norm
		}
		r.Table.AddRow(n, fmt.Sprintf("%.1f", mean), norm)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("worst ψ/log₂n = %.2f (want O(1))", worst))
	r.Pass = worst < 6
	return r
}

// E5LowDegreeFilter measures Theorem 13: T(M) is O(1)-sparse and retains a
// constant fraction of T.
func E5LowDegreeFilter(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E5",
		Title: "Low-degree core T(M)",
		Claim: "Theorem 13: T(M) is O(1)-sparse with E|T(M)| = Ω(|T|)",
		Table: stats.NewTable("n", "ψ(T(M))", "retention |T(M)|/|T|"),
	}
	var psis, fracs []float64
	for _, n := range cfg.Sizes {
		var cellPsi, cellFrac []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(900*n+s), n)
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			sub := core.LowDegreeSubset(res.Tree, 0)
			links := make([]sinr.Link, len(sub))
			for i, tl := range sub {
				links[i] = tl.L
			}
			cellPsi = append(cellPsi, float64(sparsity.MeasureAtScales(in, links)))
			cellFrac = append(cellFrac, core.RetentionFraction(res.Tree, 0))
		}
		mp := stats.Summarize(cellPsi).Mean
		mf := stats.Summarize(cellFrac).Mean
		psis = append(psis, mp)
		fracs = append(fracs, mf)
		r.Table.AddRow(n, fmt.Sprintf("%.1f", mp), fmt.Sprintf("%.2f", mf))
	}
	ps := stats.Summarize(psis)
	fs := stats.Summarize(fracs)
	r.Notes = append(r.Notes,
		fmt.Sprintf("ψ(T(M)) range [%.1f, %.1f] (want flat O(1))", ps.Min, ps.Max),
		fmt.Sprintf("retention min %.2f (want bounded below)", fs.Min))
	r.Pass = ps.Max <= core.DefaultRho+1 && fs.Min > 0.4
	return r
}

// E6MeanReschedule measures Theorem 3: rescheduling T under mean power
// removes the log Δ dependence that uniform power must pay.
func E6MeanReschedule(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E6",
		Title: "Mean-power rescheduling of T",
		Claim: "Theorem 3: T reschedulable in O(Υ·log³n) slots with mean power; uniform power pays Ω(log Δ)",
		Table: stats.NewTable("Δ", "uniform FF slots", "mean FF slots", "mean distributed slots"),
	}
	var uniFirst, uniLast float64
	pass := true
	for i, e := range cfg.DeltaExps {
		delta := math.Exp2(float64(e))
		in := chainInst(cfg.ChainN, delta)
		var uni, meanFF, meanDist []float64
		for s := 0; s < cfg.Seeds; s++ {
			res, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			uni = append(uni, float64(core.UniformScheduleLength(in, res.Tree)))
			meanFF = append(meanFF, float64(core.MeanScheduleLength(in, res.Tree)))
			pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
			rres, err := core.Reschedule(ctx, in, res.Tree, pa,
				channel(int64(s)))
			if err == nil {
				meanDist = append(meanDist, float64(rres.NumSlots))
			}
		}
		u := stats.Summarize(uni).Mean
		mf := stats.Summarize(meanFF).Mean
		md := stats.Summarize(meanDist).Mean
		r.Table.AddRow(fmt.Sprintf("2^%d", e), fmt.Sprintf("%.1f", u),
			fmt.Sprintf("%.1f", mf), fmt.Sprintf("%.1f", md))
		if i == 0 {
			uniFirst = u
		}
		if i == len(cfg.DeltaExps)-1 {
			uniLast = u
			if mf > u {
				pass = false // mean power must beat uniform at high Δ
			}
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("uniform slots grew %.1f → %.1f across the Δ sweep (log Δ cost)", uniFirst, uniLast))
	r.Pass = pass && uniLast >= uniFirst
	return r
}

// E7Iterations measures Theorem 12: TreeViaCapacity ends in O((1/δ)·log n)
// iterations.
func E7Iterations(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E7",
		Title: "TreeViaCapacity iteration count",
		Claim: "Theorem 12: O((1/δ)·log n) iterations",
		Table: stats.NewTable("n", "iterations", "iters/log₂n", "mean δ (selection fraction)"),
	}
	var ns, its []float64
	for _, n := range cfg.Sizes {
		var cellIt, cellDelta []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(1100*n+s), n)
			res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary,
				Init:    core.InitConfig{Channel: channel(int64(s))},
			})
			if err != nil {
				continue
			}
			cellIt = append(cellIt, float64(res.Iterations))
			cellDelta = append(cellDelta, stats.Summarize(res.SelectionFractions).Mean)
		}
		mi := stats.Summarize(cellIt).Mean
		r.Table.AddRow(n, fmt.Sprintf("%.1f", mi),
			mi/math.Log2(float64(n)), fmt.Sprintf("%.2f", stats.Summarize(cellDelta).Mean))
		ns = append(ns, float64(n))
		its = append(its, mi)
	}
	exp := stats.GrowthExponent(ns, its)
	r.Notes = append(r.Notes,
		fmt.Sprintf("iterations vs n growth exponent = %.2f (want ≪ 1)", exp))
	r.Pass = exp < 0.7
	return r
}

// E8ArbitraryPower measures Theorems 4a/20/21: the arbitrary-power bi-tree
// schedules in O(log n) slots and the per-iteration selection keeps the
// Eqn-3 invariant power-solvable.
func E8ArbitraryPower(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E8",
		Title: "Arbitrary-power bi-tree (Distr-Cap)",
		Claim: "Theorem 4a: bi-tree found and scheduled in O(log n) slots with power control",
		Table: stats.NewTable("n", "schedule slots", "slots/log₂n", "agg latency", "construction slots"),
	}
	var ns, slots []float64
	solvable := true
	for _, n := range cfg.Sizes {
		var cellS, cellL, cellC []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(1300*n+s), n)
			res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary,
				Init:    core.InitConfig{Channel: channel(int64(s))},
			})
			if err != nil {
				solvable = false
				continue
			}
			if res.Tree.ValidatePerSlotFeasible(in) != nil {
				solvable = false
			}
			cellS = append(cellS, float64(res.Tree.NumSlots()))
			if lat, err := res.Tree.AggregationLatency(); err == nil {
				cellL = append(cellL, float64(lat))
			}
			cellC = append(cellC, float64(res.ConstructionSlots))
		}
		ms := stats.Summarize(cellS).Mean
		r.Table.AddRow(n, fmt.Sprintf("%.1f", ms), ms/math.Log2(float64(n)),
			fmt.Sprintf("%.1f", stats.Summarize(cellL).Mean),
			fmt.Sprintf("%.0f", stats.Summarize(cellC).Mean))
		ns = append(ns, float64(n))
		slots = append(slots, ms)
	}
	exp := stats.GrowthExponent(ns, slots)
	r.Notes = append(r.Notes,
		fmt.Sprintf("schedule slots vs n growth exponent = %.2f (want ≪ 1)", exp),
		fmt.Sprintf("all per-slot groups power-feasible: %v", solvable))
	r.Pass = exp < 0.7 && solvable
	return r
}

// E9MeanPower measures Theorem 4b/16: the mean-power bi-tree schedules in
// O(Υ·log n) slots.
func E9MeanPower(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E9",
		Title: "Mean-power bi-tree (Υ-sampling)",
		Claim: "Theorem 4b: bi-tree found and scheduled in O(Υ·log n) slots with mean power",
		Table: stats.NewTable("n", "schedule slots", "slots/(Υ·log₂n)", "agg latency"),
	}
	var ns, slots []float64
	ok := true
	for _, n := range cfg.Sizes {
		var cellS, cellL []float64
		var ups float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(1500*n+s), n)
			ups = in.Upsilon()
			res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantMean,
				Init:    core.InitConfig{Channel: channel(int64(s))},
			})
			if err != nil {
				ok = false
				continue
			}
			if res.Tree.ValidatePerSlotFeasible(in) != nil {
				ok = false
			}
			cellS = append(cellS, float64(res.Tree.NumSlots()))
			if lat, err := res.Tree.AggregationLatency(); err == nil {
				cellL = append(cellL, float64(lat))
			}
		}
		ms := stats.Summarize(cellS).Mean
		r.Table.AddRow(n, fmt.Sprintf("%.1f", ms),
			ms/(ups*math.Log2(float64(n))),
			fmt.Sprintf("%.1f", stats.Summarize(cellL).Mean))
		ns = append(ns, float64(n))
		slots = append(slots, ms)
	}
	exp := stats.GrowthExponent(ns, slots)
	r.Notes = append(r.Notes,
		fmt.Sprintf("schedule slots vs n growth exponent = %.2f (want ≪ 1)", exp))
	r.Pass = exp < 0.7 && ok
	return r
}

// E10Crossover compares the schemes on a Δ sweep at fixed n. The shape
// claims that survive contact with the physics: (a) on the same Init tree,
// mean power never schedules worse than uniform, and the gap widens with Δ;
// (b) the Section 8 schedules (mean and arbitrary TVC) stay flat as Δ
// grows — their lengths depend on n, not Δ; (c) the distributed
// constructions are within a constant factor of the centralized MST
// baseline.
func E10Crossover(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E10",
		Title: "Power-scheme comparison on high-Δ chains",
		Claim: "Sections 7–8: mean ≤ uniform on the same tree; Section-8 schedule lengths are Δ-independent",
		Table: stats.NewTable("Δ", "uniform FF (Init tree)", "mean FF (Init tree)", "mean TVC", "arbitrary TVC", "MST mean FF (centralized)"),
	}
	var uniCol, meanFFCol, arbCol, meanTVCCol []float64
	for _, e := range cfg.DeltaExps {
		delta := math.Exp2(float64(e))
		in := chainInst(cfg.ChainN, delta)
		var uni, meanFF, meanS, arbS, mst []float64
		for s := 0; s < cfg.Seeds; s++ {
			ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err == nil {
				uni = append(uni, float64(core.UniformScheduleLength(in, ires.Tree)))
				meanFF = append(meanFF, float64(core.MeanScheduleLength(in, ires.Tree)))
			}
			if res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantMean, Init: core.InitConfig{Channel: channel(int64(s))},
			}); err == nil {
				meanS = append(meanS, float64(res.Tree.NumSlots()))
			}
			if res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary, Init: core.InitConfig{Channel: channel(int64(s))},
			}); err == nil {
				arbS = append(arbS, float64(res.Tree.NumSlots()))
			}
		}
		// Centralized baseline: MST scheduled first-fit under mean power.
		edges := geom.MST(in.Points())
		links := make([]sinr.Link, len(edges))
		for i, ed := range edges {
			links[i] = sinr.Link{From: ed.U, To: ed.V}
		}
		pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
		ffSlots, bad := schedule.FirstFit(in, links, pa)
		mst = append(mst, float64(len(ffSlots)+len(bad)))

		u := stats.Summarize(uni).Mean
		mf := stats.Summarize(meanFF).Mean
		mt := stats.Summarize(meanS).Mean
		a := stats.Summarize(arbS).Mean
		r.Table.AddRow(fmt.Sprintf("2^%d", e), fmt.Sprintf("%.1f", u),
			fmt.Sprintf("%.1f", mf), fmt.Sprintf("%.1f", mt), fmt.Sprintf("%.1f", a),
			fmt.Sprintf("%.1f", stats.Summarize(mst).Mean))
		uniCol = append(uniCol, u)
		meanFFCol = append(meanFFCol, mf)
		meanTVCCol = append(meanTVCCol, mt)
		arbCol = append(arbCol, a)
	}
	last := len(uniCol) - 1
	r.Notes = append(r.Notes,
		fmt.Sprintf("same-tree gap at top Δ: uniform %.1f vs mean %.1f", uniCol[last], meanFFCol[last]),
		fmt.Sprintf("arbitrary TVC across the Δ sweep: %.1f → %.1f (flat = Δ-independent)", arbCol[0], arbCol[last]))
	flat := arbCol[last] <= arbCol[0]*1.6+2 && meanTVCCol[last] <= meanTVCCol[0]*1.6+2
	r.Pass = meanFFCol[last] <= uniCol[last] && flat
	return r
}

// E11Latency verifies the bi-tree latency claims: aggregation and broadcast
// complete within the schedule length, and pairwise latency within twice it.
func E11Latency(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E11",
		Title: "Bi-tree latency (converge-cast / broadcast / pairwise)",
		Claim: "Definition 1 / Theorem 4: aggregation, broadcast, and any pairwise communication complete in O(log n) slots",
		Table: stats.NewTable("n", "schedule", "agg", "bcast", "max pair (sampled)"),
	}
	pass := true
	for _, n := range cfg.Sizes {
		var sch, agg, bc, pairMax []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(1700*n+s), n)
			res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{
				Variant: core.VariantArbitrary,
				Init:    core.InitConfig{Channel: channel(int64(s))},
			})
			if err != nil {
				pass = false
				continue
			}
			bt := res.Tree
			k := bt.NumSlots()
			sch = append(sch, float64(k))
			a, err := bt.AggregationLatency()
			if err != nil {
				pass = false
				continue
			}
			b, err := bt.BroadcastLatency()
			if err != nil {
				pass = false
				continue
			}
			agg = append(agg, float64(a))
			bc = append(bc, float64(b))
			if a > k || b > k {
				pass = false
			}
			rng := rand.New(rand.NewSource(int64(s)))
			worst := 0
			for trial := 0; trial < 5; trial++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				if lat, err := bt.PairLatency(src, dst); err == nil && lat > worst {
					worst = lat
				} else if err != nil {
					pass = false
				}
			}
			pairMax = append(pairMax, float64(worst))
			if worst > 2*k {
				pass = false
			}
		}
		r.Table.AddRow(n, fmt.Sprintf("%.1f", stats.Summarize(sch).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(agg).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(bc).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(pairMax).Mean))
	}
	r.Pass = pass
	return r
}

// E12CapacityRatio compares Distr-Cap against the centralized Kesselheim
// selection on identical candidate sets (Theorem 20's Ω(1) fraction).
func E12CapacityRatio(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E12",
		Title: "Distributed vs centralized capacity selection",
		Claim: "Theorem 20: E|T′| = Ω(|OPT|) — the distributed selection is a constant fraction of the centralized one",
		Table: stats.NewTable("n", "candidates", "central |T′|", "distr |T′| (4 repeats)", "ratio"),
	}
	var ratios []float64
	for _, n := range cfg.Sizes {
		var cand, cent, dist []float64
		for s := 0; s < cfg.Seeds; s++ {
			in := uniformInst(int64(1900*n+s), n)
			ires, err := core.Init(ctx, in, core.InitConfig{Channel: channel(int64(s))})
			if err != nil {
				continue
			}
			sub := core.LowDegreeSubset(ires.Tree, 0)
			links := make([]sinr.Link, len(sub))
			for i, tl := range sub {
				links[i] = tl.L
			}
			c := core.CentralCapacity(in, links, 0)
			d := core.DistrCap(in, links, core.DistrCapConfig{Seed: int64(s), Repeats: 4})
			cand = append(cand, float64(len(links)))
			cent = append(cent, float64(len(c)))
			dist = append(dist, float64(len(d.Selected)))
			// Largeness is in expectation; ensure feasibility always.
			if _, _, err := power.Solve(in, d.Selected); err != nil {
				r.Notes = append(r.Notes, "ERROR: distr selection not power-solvable")
			}
		}
		mc := stats.Summarize(cent).Mean
		md := stats.Summarize(dist).Mean
		ratio := 0.0
		if mc > 0 {
			ratio = md / mc
		}
		ratios = append(ratios, ratio)
		r.Table.AddRow(n, fmt.Sprintf("%.0f", stats.Summarize(cand).Mean),
			fmt.Sprintf("%.1f", mc), fmt.Sprintf("%.1f", md), ratio)
	}
	rs := stats.Summarize(ratios)
	r.Notes = append(r.Notes,
		fmt.Sprintf("distributed/centralized ratio range [%.2f, %.2f] (want bounded below)", rs.Min, rs.Max))
	r.Pass = rs.Min > 0.05
	return r
}
