package sinr

import "math"

// Group is a slot group that first-fit scheduling grows one link at a time.
// It decides whether a candidate link fits with the answer the matching
// whole-group check gives — SINRFeasible at the stamped powers (SINRGroup)
// or Feasible under an assignment (AffectanceGroup) on the group plus the
// candidate — but pays one term per member instead of re-checking every
// pair.
//
// Each member keeps the sum its check folds, in group order: its
// interference in the SINR form, its affectance a_L(ℓ) in the affectance
// form. A group never holds two links that share a node (TryAdd rejects
// them), so a member's own sender is its only signal term, and appending a
// candidate appends exactly one term to every member's fold: the floats
// are the ones Instance.SINR and SetLinkAffectance compute, bit for bit.
// The candidate's own sum folds the members' terms in group order.
type Group struct {
	in     *Instance
	affect bool // affectance form; SINR form otherwise
	links  []Link
	power  []float64 // each member's sender power
	sig    []float64 // SINR form: each member's received signal
	lenA   []float64 // affectance form: each member's ℓ^α
	c      []float64 // affectance form: each member's c(u,v), never +Inf
	sum    []float64 // each member's folded interference or affectance
	next   []float64 // scratch: sum with a candidate's term appended
	busy   map[int]struct{}
}

// SINRGroup returns an empty group whose TryAdd answers SINRFeasible.
func (in *Instance) SINRGroup() *Group {
	return &Group{in: in, busy: map[int]struct{}{}}
}

// AffectanceGroup returns an empty group whose TryAdd answers Feasible
// under the assignment that gave the powers passed to it.
func (in *Instance) AffectanceGroup() *Group {
	return &Group{in: in, affect: true, busy: map[int]struct{}{}}
}

// Links returns the members in the order they joined. The slice is the
// group's own; it stays valid, and unchanged, once the group stops growing.
func (g *Group) Links() []Link { return g.links }

// TryAdd appends l, its sender transmitting at power p, when the group
// stays feasible with it and l shares no node with a member; it reports
// whether it did. In the affectance form p must be the assignment's power
// for l, and a link with c(u,v) = +Inf never fits, not even an empty
// group. In the SINR form an empty group takes l iff l alone meets β.
func (g *Group) TryAdd(l Link, p float64) bool {
	if _, ok := g.busy[l.From]; ok {
		return false
	}
	if _, ok := g.busy[l.To]; ok {
		return false
	}
	var own, sig, lenA, c float64
	var ok bool
	if g.affect {
		own, lenA, c, ok = g.tryAffectance(l, p)
	} else {
		own, sig, ok = g.trySINR(l, p)
	}
	if !ok {
		return false
	}
	k := len(g.links)
	copy(g.sum, g.next[:k])
	g.links = append(g.links, l)
	g.power = append(g.power, p)
	g.sum = append(g.sum, own)
	g.next = append(g.next, 0)
	if g.affect {
		g.lenA = append(g.lenA, lenA)
		g.c = append(g.c, c)
	} else {
		g.sig = append(g.sig, sig)
	}
	g.busy[l.From] = struct{}{}
	g.busy[l.To] = struct{}{}
	return true
}

// trySINR is TryAdd's feasibility check in the SINR form. It fills g.next
// with the members' interference after l and returns l's own interference
// and signal. Products are rounded before each sum, as in Instance.SINR,
// so no platform fuses them.
func (g *Group) trySINR(l Link, p float64) (interference, signal float64, ok bool) {
	in := g.in
	toL := in.GainRow(l.To)     // gains at l's receiver
	fromL := in.GainRow(l.From) // l's sender's gains at every receiver (symmetric table)
	var gl float64
	if toL != nil {
		gl = toL[l.From]
	} else {
		gl = in.Gain(l.From, l.To)
	}
	signal += float64(p * gl)
	for i, m := range g.links {
		var gm float64
		if toL != nil {
			gm = toL[m.From]
		} else {
			gm = in.Gain(m.From, l.To)
		}
		interference += float64(g.power[i] * gm)
	}
	if !in.meetsBeta(in.sinrOf(signal, interference)) {
		return 0, 0, false
	}
	for i, m := range g.links {
		var gm float64
		if fromL != nil {
			gm = fromL[m.To]
		} else {
			gm = in.Gain(l.From, m.To)
		}
		s := g.sum[i] + float64(p*gm)
		if !in.meetsBeta(in.sinrOf(g.sig[i], s)) {
			return 0, 0, false
		}
		g.next[i] = s
	}
	return interference, signal, true
}

// tryAffectance is TryAdd's feasibility check in the affectance form. It
// fills g.next with the members' affectance after l and returns l's own
// affectance and its hoisted constants.
func (g *Group) tryAffectance(l Link, p float64) (affectance, lenA, c float64, ok bool) {
	in := g.in
	lenA = in.LengthAlpha(l)
	c = in.cFromLenAlpha(lenA, p)
	if math.IsInf(c, 1) {
		return 0, 0, 0, false
	}
	cap_ := 1 + in.params.Epsilon
	for i, m := range g.links {
		affectance += in.affectanceTerm(m.From, g.power[i], l.To, p, lenA, c, cap_)
	}
	if affectance > 1+feasibleSlack {
		return 0, 0, 0, false
	}
	for i, m := range g.links {
		s := g.sum[i] + in.affectanceTerm(l.From, p, m.To, g.power[i], g.lenA[i], g.c[i], cap_)
		if s > 1+feasibleSlack {
			return 0, 0, 0, false
		}
		g.next[i] = s
	}
	return affectance, lenA, c, true
}
