package core

import (
	"math/rand"
	"sort"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// distrCapP is the per-phase sampling probability ("iid probability p
// (small constant)").
const distrCapP = 0.15

// gamma2 is the duality constant γ₂ < 1 of Claim 8.3. It is typed so that
// gamma2*gamma2 rounds as a float64 product, as the coins always have.
const gamma2 float64 = 0.85

// DistrCapConfig tunes the Section 8.2 distributed capacity protocol.
type DistrCapConfig struct {
	// Tau is the admission threshold τ of Eqn 3. Default DefaultTau.
	Tau float64
	// Repeats runs each length-class phase this many slot-pairs instead of
	// the paper's one, boosting the selected fraction at a constant-factor
	// slot cost (an engineering extension; 1 reproduces the paper).
	// Default 1.
	Repeats int
	// Seed drives the sampling coins.
	Seed int64
}

// DefaultDistrTau is the default τ for the *distributed* protocol. It is
// looser than DefaultTau because the measured thresholds are conservative:
// the measurement includes interference from concurrently-sampled
// candidates that mostly do not end up selected, so the invariant actually
// enforced on T′ is much tighter than the nominal τ (empirically the
// selected sets always satisfy Eqn 3 at τ/2 and are power-solvable).
const DefaultDistrTau = 1.5

func (c *DistrCapConfig) defaults() {
	if c.Tau <= 0 {
		c.Tau = DefaultDistrTau
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
}

// DistrCapResult reports the selection and its cost.
type DistrCapResult struct {
	// Selected is T′: the links admitted across all phases. It satisfies
	// the Eqn-3 invariant (Lemmas 17–18), so a feasible power assignment
	// exists (Section 8.2.3).
	Selected []sinr.Link
	// Phases is the number of length-class phases executed.
	Phases int
	// SlotPairs is the channel time consumed (Repeats slot-pairs per
	// phase).
	SlotPairs int
	// Energy is the transmission energy the protocol spent on the channel
	// (sum of every transmitted power across both slots of every phase).
	Energy float64
}

// DistrCap is the Section 8.2 protocol selecting a large
// power-control-feasible subset T′ of the candidate links. Phases iterate
// ascending length classes (links formed in round i of Init are exactly a
// length class). In each phase:
//
//	slot 1: T′ and the sampled candidates transmit with LINEAR power; each
//	        candidate receiver records success iff its measured affectance
//	        is at most τ/4;
//	slot 2: the duals of T′ and of slot-1 survivors (sampled again with
//	        probability γ₂²·p) transmit with linear power; dual receivers
//	        record success iff measured affectance ≤ γ₂τ/4.
//
// Candidates succeeding in both directions join T′. Half-duplex and
// busy-sender conflicts are resolved by the physics, which is exactly what
// keeps T′ one-link-per-node. The feasibility argument is Lemmas 17–18;
// the largeness argument is Theorem 20.
func DistrCap(in *sinr.Instance, cand []sinr.Link, cfg DistrCapConfig) *DistrCapResult {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lin := sinr.NoiseSafeLinear(in.Params())

	// Group candidates by doubling length class, ascending.
	byClass := make(map[int][]sinr.Link)
	for _, l := range cand {
		r := geom.LengthClass(in.Length(l))
		byClass[r] = append(byClass[r], l)
	}
	classes := make([]int, 0, len(byClass))
	for r := range byClass {
		classes = append(classes, r)
	}
	sort.Ints(classes)

	res := &DistrCapResult{}
	var selected []sinr.Link
	selectedNodes := make(map[int]bool)

	for _, r := range classes {
		res.Phases++
		for rep := 0; rep < cfg.Repeats; rep++ {
			res.SlotPairs++
			q := byClass[r]
			// Remaining candidates: not yet selected, nodes free.
			var live []sinr.Link
			for _, l := range q {
				if !selectedNodes[l.From] && !selectedNodes[l.To] {
					live = append(live, l)
				}
			}
			if len(live) == 0 {
				continue
			}
			admitted, energy := distrCapPhase(in, selected, live, lin, cfg, rng)
			res.Energy += energy
			for _, l := range admitted {
				selected = append(selected, l)
				selectedNodes[l.From] = true
				selectedNodes[l.To] = true
			}
		}
	}
	res.Selected = selected
	return res
}

// distrCapPhase plays one slot-pair of the protocol and returns the links
// admitted plus the transmission energy the pair spent.
func distrCapPhase(in *sinr.Instance, selected, live []sinr.Link, lin sinr.Linear, cfg DistrCapConfig, rng *rand.Rand) ([]sinr.Link, float64) {
	// Slot 1: T′ senders always transmit; live candidates with coin p.
	var txs []sinr.Tx
	transmitting := make(map[int]bool)
	add := func(node int, power float64) bool {
		if transmitting[node] {
			return false
		}
		transmitting[node] = true
		txs = append(txs, sinr.Tx{Sender: node, Power: power})
		return true
	}
	for _, l := range selected {
		add(l.From, lin.Power(in, l))
	}
	var trying []sinr.Link
	for _, l := range live {
		if rng.Float64() < distrCapP && !transmitting[l.To] {
			if add(l.From, lin.Power(in, l)) {
				trying = append(trying, l)
			}
		}
	}
	// Candidate receivers measure affectance; survivors form Q̃.
	var qTilde []sinr.Link
	for _, l := range trying {
		if transmitting[l.To] {
			continue
		}
		if in.MeasuredAffectance(txs, l, lin.Power(in, l)) <= cfg.Tau/4 {
			qTilde = append(qTilde, l)
		}
	}

	// Slot 2: duals of T′ always; duals of Q̃ with coin γ₂²·p... the
	// forward coin already fired, so the conditional probability applied
	// here is γ₂² (the paper's γ₂²·p accounts for both coins).
	var ackTxs []sinr.Tx
	ackSending := make(map[int]bool)
	addAck := func(node int, power float64) bool {
		if ackSending[node] {
			return false
		}
		ackSending[node] = true
		ackTxs = append(ackTxs, sinr.Tx{Sender: node, Power: power})
		return true
	}
	for _, l := range selected {
		addAck(l.To, lin.Power(in, l.Dual()))
	}
	var acking []sinr.Link
	for _, l := range qTilde {
		if rng.Float64() < gamma2*gamma2 && !ackSending[l.From] {
			if addAck(l.To, lin.Power(in, l.Dual())) {
				acking = append(acking, l)
			}
		}
	}
	var admitted []sinr.Link
	for _, l := range acking {
		if ackSending[l.From] {
			continue // original sender busy acking something else
		}
		dual := l.Dual()
		if in.MeasuredAffectance(ackTxs, dual, lin.Power(in, dual)) <= gamma2*cfg.Tau/4 {
			admitted = append(admitted, l)
		}
	}
	return admitted, sumTxPower(txs, ackTxs)
}
