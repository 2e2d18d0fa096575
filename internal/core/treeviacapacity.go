package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sinrconn/internal/power"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// Variant selects the power regime of TreeViaCapacity (Theorem 4's two
// halves).
type Variant uint8

// TreeViaCapacity variants.
const (
	// VariantMean selects T′ by Υ-sampling and schedules with mean power
	// (Theorem 16: O(Υ·log n) slots).
	VariantMean Variant = iota + 1
	// VariantArbitrary selects T′ with Distr-Cap and computes per-link
	// powers (Theorem 21: O(log n) slots).
	VariantArbitrary
)

// TVCConfig tunes Algorithm 1.
type TVCConfig struct {
	// Variant picks mean or arbitrary power. Default VariantArbitrary.
	Variant Variant
	// Init configures the inner Section 6 constructions. Its Channel.Seed
	// drives the iteration-level randomness: each iteration's Init seed,
	// and the selection's coins, derive from it. Participants and
	// Channel.Seed are overwritten each iteration.
	Init InitConfig
	// Rho is the degree cap for T(M). Default DefaultRho.
	Rho int
}

func (c *TVCConfig) defaults() {
	if c.Variant == 0 {
		c.Variant = VariantArbitrary
	}
	if c.Rho <= 0 {
		c.Rho = DefaultRho
	}
}

// gamma1 is the mean-variant sampling constant γ₁ (q = 1/(4γ₁Υ)).
const gamma1 = 0.25

// maxIterations caps Algorithm 1's loop on n nodes: 30·⌈log₂ n⌉ + 30.
func maxIterations(n int) int {
	return 30*int(math.Ceil(math.Log2(math.Max(2, float64(n))))) + 30
}

// TVCResult is the outcome of Algorithm 1.
type TVCResult struct {
	// Tree is the final bi-tree. Link slot stamps are iteration indices:
	// the final schedule length is the number of iterations that selected
	// at least one link, matching Theorem 12's "each iteration uses a
	// single slot".
	Tree *tree.BiTree
	// Iterations is the number of Algorithm 1 iterations executed.
	Iterations int
	// ConstructionSlots is the total channel time spent: inner Init runs
	// plus selection slot-pairs.
	ConstructionSlots int
	// SelectionFractions records |T′|/|T| per iteration (Theorem 12's δ).
	SelectionFractions []float64
	// ForcedSelections counts iterations where the probabilistic selection
	// came up empty and the shortest candidate was force-admitted to
	// guarantee progress (a deterministic safety net; rare).
	ForcedSelections int
	// PowerSolveIterations sums Foschini–Miljanic rounds (the paper's η
	// budget for Section 8.2.3), arbitrary variant only.
	PowerSolveIterations int
	// Energy is the total transmission energy the construction spent on
	// the channel: every inner Init run plus the selection protocol's
	// transmissions (Distr-Cap phases or mean-power sampling pairs).
	Energy float64
}

// ErrTVCStuck reports that Algorithm 1 hit its iteration budget.
var ErrTVCStuck = errors.New("core: TreeViaCapacity exceeded iteration budget")

// TreeViaCapacity runs Algorithm 1: repeatedly build an Init tree on the
// still-active nodes, select a large feasible subset T′ of its low-degree
// core, commit those links at the current iteration's schedule slot, and
// recurse on the top-level nodes. See Theorems 12, 16, 20, 21.
// ctx is checked at every iteration (and inside every inner Init run); a
// canceled context aborts the construction with an error wrapping ctx.Err().
func TreeViaCapacity(ctx context.Context, in *sinr.Instance, cfg TVCConfig) (*TVCResult, error) {
	cfg.defaults()
	if in.Len() == 0 {
		return nil, errors.New("core: empty instance")
	}
	rng := rand.New(rand.NewSource(cfg.Init.Channel.Seed))
	budget := maxIterations(in.Len())

	active := make([]int, in.Len())
	for i := range active {
		active[i] = i
	}
	meanPA := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))

	res := &TVCResult{Tree: &tree.BiTree{Nodes: append([]int(nil), active...)}}
	for len(active) > 1 {
		if res.Iterations >= budget {
			return res, fmt.Errorf("%w: %d nodes still active", ErrTVCStuck, len(active))
		}
		res.Iterations++
		iterSeed := rng.Int63()
		if err := checkCtx(ctx, "tree-via-capacity"); err != nil {
			return res, err
		}

		// Step 3: inner tree on the active set.
		icfg := cfg.Init
		icfg.Participants = active
		icfg.Channel.Seed = iterSeed
		ires, err := Init(ctx, in, icfg)
		if err != nil {
			return res, fmt.Errorf("core: iteration %d init: %w", res.Iterations, err)
		}
		res.ConstructionSlots += ires.SlotsUsed
		res.Energy += ires.Stats.Energy
		innerTree := ires.Tree

		// Step 4a: low-degree core T(M) (Theorem 13).
		core := LowDegreeSubset(innerTree, cfg.Rho)
		cand := make([]sinr.Link, len(core))
		for i, tl := range core {
			cand[i] = tl.L
		}
		if len(cand) == 0 {
			// Degenerate: fall back to the full tree's links.
			for _, tl := range innerTree.Up {
				cand = append(cand, tl.L)
			}
		}

		// Step 4b: select T′.
		var selected []sinr.Link
		var powers map[sinr.Link]float64
		switch cfg.Variant {
		case VariantMean:
			q := SampleProb(in.Upsilon(), gamma1)
			var selEnergy float64
			selected, selEnergy = MeanSampleEnergy(in, cand, meanPA, q, rand.New(rand.NewSource(iterSeed^0x9E37)))
			res.ConstructionSlots += 2
			res.Energy += selEnergy
			powers = make(map[sinr.Link]float64, len(selected))
			for _, l := range selected {
				powers[l] = meanPA.Power(in, l)
			}
		case VariantArbitrary:
			dres := DistrCap(in, cand, DistrCapConfig{Seed: iterSeed ^ 0x51AB})
			res.ConstructionSlots += 2 * dres.SlotPairs
			res.Energy += dres.Energy
			var it int
			selected, powers, it, err = solvePowers(in, dres.Selected)
			if err != nil {
				return res, fmt.Errorf("core: iteration %d power solve: %w", res.Iterations, err)
			}
			res.PowerSolveIterations += it
		default:
			return res, fmt.Errorf("core: unknown variant %d", cfg.Variant)
		}

		// Safety net: force progress when the coins all came up empty.
		if len(selected) == 0 {
			l := shortestLink(in, cand)
			selected = []sinr.Link{l}
			powers = map[sinr.Link]float64{l: in.Params().SafePower(in.Length(l))}
			res.ForcedSelections++
		}
		if denom := len(innerTree.Up); denom > 0 {
			res.SelectionFractions = append(res.SelectionFractions,
				float64(len(selected))/float64(denom))
		}

		// Step 5: commit T′ at this iteration's slot; recurse on top-level
		// nodes (those without an outgoing selected link).
		gone := make(map[int]bool, len(selected))
		for _, l := range selected {
			res.Tree.Up = append(res.Tree.Up, tree.TimedLink{
				L:     l,
				Slot:  res.Iterations,
				Power: powers[l],
			})
			gone[l.From] = true
		}
		next := active[:0]
		for _, v := range active {
			if !gone[v] {
				next = append(next, v)
			}
		}
		active = next
	}
	res.Tree.Root = active[0]
	res.Tree.Compact()
	return res, nil
}

// solvePowers computes a feasible power vector for the Distr-Cap selection.
// The Eqn-3 invariant guarantees solvability; as a defensive measure, if
// the solver still diverges the longest links are dropped until it
// converges (never observed on generated instances, but a hard guarantee
// beats an assumption).
func solvePowers(in *sinr.Instance, selected []sinr.Link) ([]sinr.Link, map[sinr.Link]float64, int, error) {
	links := append([]sinr.Link(nil), selected...)
	sort.SliceStable(links, func(a, b int) bool {
		return in.Length(links[a]) < in.Length(links[b])
	})
	totalIt := 0
	for len(links) > 0 {
		vec, it, err := power.Solve(in, links)
		totalIt += it
		if err == nil {
			m := make(map[sinr.Link]float64, len(links))
			for i, l := range links {
				m[l] = vec[i]
			}
			return links, m, totalIt, nil
		}
		if !errors.Is(err, power.ErrInfeasible) {
			return nil, nil, totalIt, err
		}
		links = links[:len(links)-1] // drop the longest and retry
	}
	return nil, map[sinr.Link]float64{}, totalIt, nil
}

func shortestLink(in *sinr.Instance, links []sinr.Link) sinr.Link {
	best := links[0]
	bestLen := in.Length(best)
	for _, l := range links[1:] {
		if ln := in.Length(l); ln < bestLen {
			bestLen = ln
			best = l
		}
	}
	return best
}
