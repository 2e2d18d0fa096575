package core

import (
	"math/rand"

	"sinrconn/internal/sinr"
)

// VerifyPairEnergy plays one broadcast/acknowledgment slot-pair over the
// exact channel physics for the given links under assignment pa and returns
// the subset that succeeded in *both* directions — the doubly-confirmed
// success notion the paper uses everywhere (Section 5, Section 8.1's "extra
// acknowledgment slot"). Node conflicts are resolved the way a radio would:
//
//   - a node that transmits cannot receive in the same slot (half-duplex);
//   - a node that is the sender of several participating links serves only
//     the first of them (the rest fail);
//   - reception requires SINR ≥ β with every concurrent transmitter as
//     interference.
//
// It also returns the transmission energy the slot-pair spent on the
// channel (the sum of every transmitted power over both slots), so callers
// can account selection cost in their energy totals.
func VerifyPairEnergy(in *sinr.Instance, links []sinr.Link, pa sinr.Assignment) ([]sinr.Link, float64) {
	if len(links) == 0 {
		return nil, 0
	}
	// Slot 1: every link's sender transmits. Duplicate senders serve only
	// their first link.
	senderOf := make(map[int]int, len(links)) // node → link index it serves
	var txs []sinr.Tx
	for i, l := range links {
		if _, dup := senderOf[l.From]; dup {
			continue
		}
		senderOf[l.From] = i
		txs = append(txs, sinr.Tx{Sender: l.From, Power: pa.Power(in, l)})
	}
	transmitting := make(map[int]bool, len(txs))
	for _, t := range txs {
		transmitting[t.Sender] = true
	}
	forward := make([]bool, len(links))
	for i, l := range links {
		if senderOf[l.From] != i {
			continue // sender busy with another link
		}
		if transmitting[l.To] {
			continue // half-duplex: receiver is transmitting
		}
		if in.SINR(txs, l) >= in.Params().Beta {
			forward[i] = true
		}
	}

	// Slot 2: receivers of forward-successful links acknowledge on the
	// duals. A node acks only one link.
	ackOf := make(map[int]int, len(links))
	var ackTxs []sinr.Tx
	for i, l := range links {
		if !forward[i] {
			continue
		}
		if _, dup := ackOf[l.To]; dup {
			continue
		}
		ackOf[l.To] = i
		ackTxs = append(ackTxs, sinr.Tx{Sender: l.To, Power: pa.Power(in, l.Dual())})
	}
	ackSending := make(map[int]bool, len(ackTxs))
	for _, t := range ackTxs {
		ackSending[t.Sender] = true
	}
	var out []sinr.Link
	for i, l := range links {
		if !forward[i] || ackOf[l.To] != i {
			continue
		}
		if ackSending[l.From] {
			continue // original sender busy acking some other link
		}
		if in.SINR(ackTxs, l.Dual()) >= in.Params().Beta {
			out = append(out, l)
		}
	}
	return out, sumTxPower(txs, ackTxs)
}

// sumTxPower totals the transmitted power across slot transmission sets —
// the single definition of selection-protocol energy accounting.
func sumTxPower(slots ...[]sinr.Tx) float64 {
	energy := 0.0
	for _, txs := range slots {
		for _, t := range txs {
			energy += t.Power
		}
	}
	return energy
}

// MeanSampleEnergy implements the Section 8.1 selection: sample each
// candidate link with probability q and keep those that survive a
// verification slot-pair under assignment pa (mean power in the paper). The
// paper's q = 1/(4γ₁Υ) makes the expected yield Ω(|cand|/Υ). It also
// returns the transmission energy the sampling slot-pair spent on the
// channel.
func MeanSampleEnergy(in *sinr.Instance, cand []sinr.Link, pa sinr.Assignment, q float64, rng *rand.Rand) ([]sinr.Link, float64) {
	if q <= 0 {
		return nil, 0
	}
	if q > 1 {
		q = 1
	}
	var sampled []sinr.Link
	for _, l := range cand {
		if rng.Float64() < q {
			sampled = append(sampled, l)
		}
	}
	return VerifyPairEnergy(in, sampled, pa)
}

// SampleProb returns the paper's sampling probability 1/(4γ₁Υ) clamped to
// (0, 1]; gamma1 ≤ 0 falls back to 0.25, making the probability 1/Υ.
func SampleProb(upsilon, gamma1 float64) float64 {
	if gamma1 <= 0 {
		gamma1 = 0.25
	}
	if upsilon < 1 {
		upsilon = 1
	}
	q := 1 / (4 * gamma1 * upsilon)
	if q > 1 {
		return 1
	}
	return q
}
