package core

import (
	"sort"

	"sinrconn/internal/sinr"
)

// DefaultTau is the default Eqn-3 admission threshold τ. Kesselheim's
// analysis needs τ below a constant for power-control feasibility of the
// selected set; 0.75 is comfortably inside the regime where the
// Foschini–Miljanic solver converges on every instance we generate.
const DefaultTau = 0.75

// CentralCapacity is the centralized constant-factor capacity algorithm of
// Kesselheim (SODA 2011) the paper builds Distr-Cap on: process links in
// ascending order of length and admit ℓ into L iff
//
//	a^L_L(ℓ) + a^U_ℓ(L) ≤ τ            (Eqn 3)
//
// where a^L is affectance under linear power and a^U under uniform power.
// The admitted set is guaranteed to be feasible under *some* power
// assignment (computable with power.Solve) and is a constant-factor
// approximation to the maximum feasible subset.
func CentralCapacity(in *sinr.Instance, links []sinr.Link, tau float64) []sinr.Link {
	if tau <= 0 {
		tau = DefaultTau
	}
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Length(links[order[a]]) < in.Length(links[order[b]])
	})

	lin := sinr.NoiseSafeLinear(in.Params())
	maxLen := 0.0
	for _, l := range links {
		if ln := in.Length(l); ln > maxLen {
			maxLen = ln
		}
	}
	uni := sinr.UniformFor(in.Params(), maxLen)

	var selected []sinr.Link
	busy := make(map[int]bool)
	for _, idx := range order {
		l := links[idx]
		// One link per node: a feasible slot cannot reuse nodes.
		if busy[l.From] || busy[l.To] {
			continue
		}
		in1 := in.SetLinkAffectance(selected, l, lin)
		out := in.OutAffectance(l, selected, uni)
		if in1+out <= tau {
			selected = append(selected, l)
			busy[l.From] = true
			busy[l.To] = true
		}
	}
	return selected
}
