package power

import (
	"errors"
	"math"

	"sinrconn/internal/sinr"
)

// ErrInfeasible reports that the Foschini–Miljanic dynamics diverged: no
// power assignment can make the link set SINR-feasible.
var ErrInfeasible = errors.New("power: link set infeasible under any power assignment")

// The solver's constants: it runs at most maxIter synchronous iterations,
// stops once no power changes by a relative tol, and solves for SINR ≥
// slack·β. The slack is above 1 because the dynamics approach the fixed
// point from below, so solving for exactly β can leave the final vector a
// hair short.
const (
	maxIter = 200
	tol     = 1e-9
	slack   = 1.01
)

// powerCap is the power above which Solve reports ErrInfeasible: 1e18 ×
// the largest noise-only requirement among links.
func powerCap(in *sinr.Instance, links []sinr.Link) float64 {
	maxReq := 0.0
	for _, l := range links {
		if r := in.Params().MinPower(in.Length(l)); r > maxReq {
			maxReq = r
		}
	}
	if maxReq == 0 {
		maxReq = 1
	}
	return maxReq * 1e18
}

// Solve computes a feasible power vector for links, or ErrInfeasible. The
// returned powers satisfy SINR ≥ slack·β for every link when all links
// transmit simultaneously, or, when the dynamics have not converged within
// maxIter rounds, SINR ≥ β as SINRFeasible checks it. Iterations is the
// number of rounds used.
func Solve(in *sinr.Instance, links []sinr.Link) (powers []float64, iterations int, err error) {
	n := len(links)
	if n == 0 {
		return nil, 0, nil
	}
	p := in.Params()
	target := p.Beta * slack
	limit := powerCap(in, links)

	// Precompute gains g[i][j]: path gain from sender of link j to receiver
	// of link i (d^-α), and the direct gain of each link.
	gain := make([][]float64, n)
	direct := make([]float64, n)
	for i, li := range links {
		gain[i] = make([]float64, n)
		for j, lj := range links {
			if i == j {
				continue
			}
			g := in.Gain(lj.From, li.To)
			if math.IsInf(g, 1) {
				// Co-located interferer sender on this receiver: hopeless.
				return nil, 0, ErrInfeasible
			}
			gain[i][j] = g
		}
		direct[i] = in.Gain(li.From, li.To)
	}

	powers = make([]float64, n)
	for i := range powers {
		powers[i] = target * p.Noise / direct[i] // noise-only requirement
	}
	next := make([]float64, n)
	for it := 1; it <= maxIter; it++ {
		maxRel := 0.0
		for i := range links {
			interf := 0.0
			for j := range links {
				interf += float64(gain[i][j] * powers[j]) // rounded: no fused multiply-add
			}
			req := target * (p.Noise + interf) / direct[i]
			next[i] = req
			if powers[i] > 0 {
				if rel := math.Abs(req-powers[i]) / powers[i]; rel > maxRel {
					maxRel = rel
				}
			}
			if req > limit || math.IsInf(req, 1) || math.IsNaN(req) {
				return nil, it, ErrInfeasible
			}
		}
		copy(powers, next)
		iterations = it
		if maxRel < tol {
			return powers, iterations, nil
		}
	}
	// No convergence within budget: verify the final vector directly; the
	// dynamics are monotone, so a feasible final vector is a valid answer.
	ok, ferr := in.SINRFeasible(links, powers)
	if ferr != nil {
		return nil, iterations, ferr
	}
	if !ok {
		return nil, iterations, ErrInfeasible
	}
	return powers, iterations, nil
}
