package phys

import (
	"errors"
	"fmt"
)

// Params holds the physical-layer constants of the SINR model.
//
//	Reception (Eqn 1):  P_u/d(u,v)^α  ≥  β·(N + Σ_w P_w/d(w,v)^α)
type Params struct {
	// Alpha is the path-loss exponent α ≥ 2. The paper's asymptotic bounds
	// assume α > 2, but the physics of Eqn 1 is well-defined on finite
	// instances at the free-space boundary α = 2, which the scenario matrix
	// exercises.
	Alpha float64
	// Beta is the required SINR threshold β. Values ≥ 1 guarantee that at
	// most one sender is decodable at any receiver in any slot.
	Beta float64
	// Noise is the ambient noise N > 0.
	Noise float64
	// Epsilon is the affectance cap constant ε of Section 5 ("some
	// arbitrary fixed constant, say 0.1").
	Epsilon float64
}

// DefaultParams returns the physical constants used throughout the
// experiments: α = 3 (typical outdoor path loss), β = 1.5, N = 1, ε = 0.1.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 1.5, Noise: 1, Epsilon: 0.1}
}

// Validate reports whether the parameters define a sane SINR model.
func (p Params) Validate() error {
	switch {
	case !(p.Alpha >= 2):
		return fmt.Errorf("sinr: alpha must be ≥ 2, got %v", p.Alpha)
	case !(p.Beta > 0):
		return fmt.Errorf("sinr: beta must be > 0, got %v", p.Beta)
	case !(p.Noise > 0):
		return fmt.Errorf("sinr: noise must be > 0, got %v", p.Noise)
	case !(p.Epsilon > 0):
		return fmt.Errorf("sinr: epsilon must be > 0, got %v", p.Epsilon)
	}
	return nil
}

// MinPower returns the minimum transmission power that lets a link of the
// given length meet SINR β against noise alone (with zero slack).
func (p Params) MinPower(length float64) float64 {
	// Rounded: SafePower's doubling must not fuse with this product.
	return float64(p.Beta * p.Noise * PowAlpha(length, p.Alpha))
}

// SafePower returns the power 2βN·ℓ^α that guarantees c(u,v) ≤ 2β for a link
// of length ℓ (Section 5's requirement that links comfortably overcome
// noise). The Init protocol uses SafePower(2^r) in round r.
func (p Params) SafePower(length float64) float64 {
	return 2 * p.MinPower(length)
}

// ErrMismatchedLengths reports a links/powers length mismatch in a bulk API.
var ErrMismatchedLengths = errors.New("sinr: links and powers have different lengths")

// ErrDuplicateSender reports a link set with two links sharing a sender in
// a far-field bulk API, which the tiled aggregation cannot express (the
// exact APIs sum duplicates fine).
var ErrDuplicateSender = errors.New("sinr: far-field link set has two links with the same sender")

// Link is a directed communication request from node From (the sender) to
// node To (the receiver), identified by point indices into an Instance.
type Link struct {
	From, To int
}

// Dual returns the link in the opposite direction, following the
// terminology of Kesselheim & Vöcking (DISC 2010) adopted by the paper.
func (l Link) Dual() Link { return Link{From: l.To, To: l.From} }

// String renders the link as "u->v".
func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// Tx is one concurrent transmission: node Sender transmitting with the given
// power. Slices of Tx describe the sender set S of Eqn 1.
type Tx struct {
	Sender int
	Power  float64
}
