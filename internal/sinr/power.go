package sinr

import "fmt"

// Assignment maps each link to the transmission power its sender uses. The
// paper studies oblivious assignments (power depends only on link length) —
// uniform U, linear L (P = ℓ^α), and mean M (P = ℓ^(α/2)) — as well as
// arbitrary per-link assignments produced by power-control algorithms.
type Assignment interface {
	// Power returns the sender power for link l in instance in. It must be
	// strictly positive for any link the caller intends to schedule.
	Power(in *Instance, l Link) float64
	// Name identifies the assignment in logs and experiment tables.
	Name() string
}

// Uniform assigns the same fixed power to every link (the paper's U). It is
// the only assignment available to nodes with no prior knowledge of the
// instance.
type Uniform struct {
	P float64
}

var _ Assignment = Uniform{}

// Power implements Assignment.
func (u Uniform) Power(*Instance, Link) float64 { return u.P }

// Name implements Assignment.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%.3g)", u.P) }

// UniformFor returns the uniform assignment with just enough power for
// links up to maxLen to comfortably overcome noise (c(u,v) ≤ 2β).
func UniformFor(p Params, maxLen float64) Uniform {
	return Uniform{P: p.SafePower(maxLen)}
}

// Linear assigns P = Scale·ℓ^α (the paper's L, up to scaling). Under linear
// power every link receives its signal at the same strength Scale,
// independent of length.
type Linear struct {
	Scale float64
}

var _ Assignment = Linear{}

// Power implements Assignment.
func (a Linear) Power(in *Instance, l Link) float64 {
	return a.Scale * in.LengthAlpha(l)
}

// Name implements Assignment.
func (a Linear) Name() string { return "linear" }

// NoiseSafeLinear returns the linear assignment with Scale = 2βN, which
// gives every link c(u,v) ≤ 2β regardless of length.
func NoiseSafeLinear(p Params) Linear {
	return Linear{Scale: 2 * p.Beta * p.Noise}
}

// Mean assigns P = Scale·ℓ^(α/2) (the paper's M). Mean power is the
// oblivious scheme with the best worst-case behaviour: its cost relative to
// arbitrary power is Υ = O(log log Δ + log n).
type Mean struct {
	Scale float64
}

var _ Assignment = Mean{}

// Power implements Assignment.
func (a Mean) Power(in *Instance, l Link) float64 {
	// α/2 hits PowAlphaSq's half-integer path for integer α: one sqrt, no Pow.
	return a.Scale * PowAlphaSq(in.DistSq(l.From, l.To), in.params.Alpha/2)
}

// Name implements Assignment.
func (a Mean) Name() string { return "mean" }

// NoiseSafeMean returns the mean assignment scaled so that even the longest
// possible link (length maxLen) comfortably overcomes noise:
// Scale = 2βN·maxLen^(α/2). Scaling all powers by a common factor leaves
// relative interference between mean-power links unchanged, so this
// preserves the paper's analysis while making Eqn 1 satisfiable under
// ambient noise.
func NoiseSafeMean(p Params, maxLen float64) Mean {
	if maxLen < 1 {
		maxLen = 1
	}
	return Mean{Scale: 2 * p.Beta * p.Noise * PowAlpha(maxLen, p.Alpha/2)}
}
