package sinr

import "math"

// cFromLenAlpha returns the paper's c(u,v) = β/(1 − βN·ℓ^α/P_u), the
// noise-derating constant of a link with path loss lenAlpha = ℓ^α whose
// sender uses power pu. It returns +Inf when the link cannot meet SINR β
// even without interference (P_u ≤ βN·ℓ^α). Section 5 requires protocols to
// pick powers keeping c(u,v) ≤ 2β; SafePower does exactly that. Taking ℓ^α
// precomputed lets the kernel hand it around, so c(u,v) costs one divide
// inside affectance loops.
func (in *Instance) cFromLenAlpha(lenAlpha, pu float64) float64 {
	p := in.params
	denom := 1 - p.Beta*p.Noise*lenAlpha/pu
	if denom <= 0 {
		return math.Inf(1)
	}
	return p.Beta / denom
}

// affectanceTerm returns one interferer's thresholded affectance on a link
// whose per-link constants are hoisted: v is the link's receiver, pu the
// link sender's power, lenAlpha = d(u,v)^α, c = c(u,v), and cap_ = 1+ε.
// The caller has already excluded the link's own sender and handled the
// c = +Inf case (a link that cannot overcome noise receives the cap from
// every interferer), so c is finite here — the branch stays out of the
// per-(sender, link) hot loops.
func (in *Instance) affectanceTerm(w int, pw float64, v int, pu, lenAlpha, c, cap_ float64) float64 {
	gwv := in.Gain(w, v) // d(w,v)^{-α}
	if math.IsInf(gwv, 1) {
		// Interferer co-located with the receiver.
		return cap_
	}
	a := c * (pw / pu) * lenAlpha * gwv
	if a > cap_ {
		return cap_
	}
	return a
}

// Affectance returns the thresholded affectance a_w(ℓ) of a sender w
// transmitting with power pw on link l whose sender uses power pu
// (Section 5):
//
//	a_w(ℓ) = min{ 1+ε,  c(u,v) · (P_w/P_u) · (d(u,v)/d(w,v))^α }
//
// Conventions: the link's own sender contributes 0; a sender co-located with
// the receiver contributes the cap 1+ε; a link that cannot overcome noise
// at all (c = +Inf) receives the cap from every interferer.
func (in *Instance) Affectance(w int, pw float64, l Link, pu float64) float64 {
	if w == l.From {
		return 0
	}
	lenAlpha := in.LengthAlpha(l)
	c := in.cFromLenAlpha(lenAlpha, pu)
	if math.IsInf(c, 1) {
		return 1 + in.params.Epsilon
	}
	return in.affectanceTerm(w, pw, l.To, pu, lenAlpha, c, 1+in.params.Epsilon)
}

// SetLinkAffectance returns a_L(ℓ) = Σ_{ℓ'∈L} a_ℓ'(ℓ) under assignment pa,
// with link l's constants hoisted out of the loop.
func (in *Instance) SetLinkAffectance(set []Link, l Link, pa Assignment) float64 {
	pu := pa.Power(in, l)
	cap_ := 1 + in.params.Epsilon
	lenAlpha := in.LengthAlpha(l)
	c := in.cFromLenAlpha(lenAlpha, pu)
	sum := 0.0
	if math.IsInf(c, 1) {
		for _, o := range set {
			if o.From != l.From {
				sum += cap_
			}
		}
		return sum
	}
	for _, o := range set {
		if o.From == l.From {
			continue
		}
		sum += in.affectanceTerm(o.From, pa.Power(in, o), l.To, pu, lenAlpha, c, cap_)
	}
	return sum
}

// OutAffectance returns a_ℓ(L) = Σ_{ℓ'∈L} a_ℓ(ℓ') — the total affectance
// link l's sender exerts on the links in set, under assignment pa.
func (in *Instance) OutAffectance(l Link, set []Link, pa Assignment) float64 {
	pl := pa.Power(in, l)
	sum := 0.0
	for _, o := range set {
		sum += in.Affectance(l.From, pl, o, pa.Power(in, o))
	}
	return sum
}

// SINR returns the signal-to-interference-and-noise ratio observed at the
// receiver of link l when the senders in txs transmit concurrently. The
// link's own sender must appear in txs with its power; other entries are
// interference. It returns 0 if the sender is absent.
func (in *Instance) SINR(txs []Tx, l Link) float64 {
	row := in.GainRow(l.To)
	signal := 0.0
	interference := 0.0
	for _, t := range txs {
		var g float64
		if row != nil {
			g = row[t.Sender]
		} else {
			g = in.Gain(t.Sender, l.To)
		}
		rp := float64(t.Power * g) // rounded: no fused multiply-add
		if t.Sender == l.From {
			signal += rp
		} else {
			interference += rp
		}
	}
	return in.sinrOf(signal, interference)
}

// sinrOf is the SINR of a reception from its received signal and its
// interference: 0 when no signal arrives.
func (in *Instance) sinrOf(signal, interference float64) float64 {
	if signal == 0 {
		return 0
	}
	return signal / (in.params.Noise + interference)
}

// feasibleSlack is the tolerance both feasibility checks allow for
// floating error: SINR may fall short of β, and affectance exceed 1, by
// this much.
const feasibleSlack = 1e-9

// meetsBeta reports whether a reception at SINR sinr passes the threshold
// β of SINRFeasible.
func (in *Instance) meetsBeta(sinr float64) bool { return !(sinr < in.params.Beta-feasibleSlack) }

// MeasuredAffectance returns the affectance a receiver can actually measure
// during a reception: c(u,v) · I/S, where S is the received signal power
// and I the total interference power at the receiver. This is the
// *uncapped* aggregate (individual terms cannot be separated at a radio),
// the quantity Distr-Cap's selection rule thresholds against τ/4
// (Section 8.2 assumes receivers can measure the SINR of a reception;
// measured affectance is a deterministic function of it). Returns +Inf when
// the link cannot overcome noise.
func (in *Instance) MeasuredAffectance(txs []Tx, l Link, pu float64) float64 {
	lenAlpha := in.LengthAlpha(l)
	c := in.cFromLenAlpha(lenAlpha, pu)
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	signal := pu / lenAlpha
	row := in.GainRow(l.To)
	interference := 0.0
	for _, t := range txs {
		if t.Sender == l.From {
			continue
		}
		var g float64
		if row != nil {
			g = row[t.Sender]
		} else {
			g = in.Gain(t.Sender, l.To)
		}
		if math.IsInf(g, 1) {
			// Zero distance to the receiver.
			return math.Inf(1)
		}
		interference += float64(t.Power * g) // rounded: no fused multiply-add
	}
	return c * interference / signal
}

// SINRFeasible reports whether every link in links, transmitting
// concurrently with the given per-link powers, meets the SINR threshold β
// (Eqn 1). Links and powers must have equal length.
func (in *Instance) SINRFeasible(links []Link, powers []float64) (bool, error) {
	return in.SINRFeasibleBuf(links, powers, nil)
}

// SINRFeasibleBuf is SINRFeasible with a caller-provided Tx scratch buffer,
// reused when its capacity suffices, so hot validators allocate nothing.
//
//sinr:hotpath
func (in *Instance) SINRFeasibleBuf(links []Link, powers []float64, scratch []Tx) (bool, error) {
	if len(links) != len(powers) {
		return false, ErrMismatchedLengths
	}
	txs := scratch[:0]
	if cap(txs) < len(links) {
		//lint:ignore hotpathalloc cold capacity-miss fallback only; a right-sized caller scratch never reaches this make
		txs = make([]Tx, 0, len(links))
	}
	for i, l := range links {
		//lint:ignore hotpathalloc cannot grow: capacity reserved by the check above; steady state pinned by TestSINRFeasibleBufZeroAlloc
		txs = append(txs, Tx{Sender: l.From, Power: powers[i]})
	}
	for _, l := range links {
		if !in.meetsBeta(in.SINR(txs, l)) {
			return false, nil
		}
	}
	return true, nil
}

// Feasible reports whether the link set is feasible under assignment pa in
// the affectance formulation a_L(ℓ) ≤ 1 for every ℓ ∈ L, which Section 5
// adopts as equivalent to Eqn 1. Each link must additionally overcome
// ambient noise on its own (finite c(u,v)); the affectance sum alone cannot
// express that for interference-free links. A small tolerance absorbs
// floating error.
func (in *Instance) Feasible(links []Link, pa Assignment) bool {
	for _, l := range links {
		if math.IsInf(in.cFromLenAlpha(in.LengthAlpha(l), pa.Power(in, l)), 1) {
			return false
		}
		if in.SetLinkAffectance(links, l, pa) > 1+feasibleSlack {
			return false
		}
	}
	return true
}
