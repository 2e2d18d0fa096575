package sparsity

import "sinrconn/internal/sinr"

// MeasureAtScales returns the measured sparsity ψ of the link set over
// endpoint-centered balls at power-of-two radii: for every radius ρ from
// maxLen/8 down to 1/16 and every endpoint c of a link of length ≥ 8ρ, it
// counts the links of length ≥ 8ρ with an endpoint within distance ρ of c,
// and returns the maximum count.
//
// Restricting to endpoint-centered balls loses at most a constant factor
// versus the supremum over all balls (a ball containing k endpoints is
// contained in the ball of twice the radius centered at any one of them),
// which is exactly the slack the paper's own union-bounding argument uses.
// The power-of-two radius grid loses at most one further doubling against
// the radii len/8 of the links actually present.
func MeasureAtScales(in *sinr.Instance, links []sinr.Link) int {
	if len(links) == 0 {
		return 0
	}
	maxLen := 0.0
	lengths := make([]float64, len(links))
	for i, l := range links {
		lengths[i] = in.Length(l)
		if lengths[i] > maxLen {
			maxLen = lengths[i]
		}
	}
	psi := 0
	for rho := maxLen / 8; rho >= 1.0/16; rho /= 2 {
		// For this radius, the qualifying links are those of length ≥ 8ρ.
		var qual []int
		for i := range links {
			if lengths[i] >= 8*rho-1e-9 {
				qual = append(qual, i)
			}
		}
		if len(qual) <= psi {
			continue // cannot beat current max
		}
		for _, e := range qual {
			for _, center := range []int{links[e].From, links[e].To} {
				c := in.Point(center)
				count := 0
				for _, i := range qual {
					l := links[i]
					if in.Point(l.From).Dist(c) <= rho+1e-9 || in.Point(l.To).Dist(c) <= rho+1e-9 {
						count++
					}
				}
				if count > psi {
					psi = count
				}
			}
		}
	}
	return psi
}
