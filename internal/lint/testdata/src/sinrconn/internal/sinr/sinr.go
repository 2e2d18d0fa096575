// Package sinr is a fixture stub of the real kernel package: importing it
// from the oracle fixture is exactly the violation oraclepurity exists to
// catch.
package sinr

// PowAlpha mirrors the fast-path kernel the oracle must never call.
func PowAlpha(d, alpha float64) float64 { return d * alpha }

// QuadTree stands in for the far-field plan, a channel type of the
// channel-config gate fixture.
type QuadTree struct{ eps float64 }
