package sinr

import (
	"math"
	"sync"
	"sync/atomic"

	"sinrconn/internal/geom"
	"sinrconn/internal/phys"
)

// The plain physical-layer data types live in internal/phys — the leaf
// package the naive oracle is allowed to share with this kernel. They are
// aliased here so every caller keeps saying sinr.Params / sinr.Link /
// sinr.Tx; see internal/phys for the definitions and the purity rationale.

// Params holds the physical-layer constants of the SINR model.
//
//	Reception (Eqn 1):  P_u/d(u,v)^α  ≥  β·(N + Σ_w P_w/d(w,v)^α)
type Params = phys.Params

// Link is a directed communication request from node From (the sender) to
// node To (the receiver), identified by point indices into an Instance.
type Link = phys.Link

// Tx is one concurrent transmission: node Sender transmitting with the given
// power. Slices of Tx describe the sender set S of Eqn 1.
type Tx = phys.Tx

// DefaultParams returns the physical constants used throughout the
// experiments: α = 3 (typical outdoor path loss), β = 1.5, N = 1, ε = 0.1.
func DefaultParams() Params { return phys.DefaultParams() }

// ErrMismatchedLengths reports a links/powers length mismatch in a bulk API.
var ErrMismatchedLengths = phys.ErrMismatchedLengths

// ErrDuplicateSender reports a link set with two links sharing a sender in
// a far-field bulk API, which the tiled aggregation cannot express (the
// exact APIs sum duplicates fine).
var ErrDuplicateSender = phys.ErrDuplicateSender

// Instance binds a point set to physical parameters. All SINR computations
// are methods on Instance so that distances are computed in one place. The
// physics kernel (kernel.go) hangs off the instance: a lazily built gain
// table caching d(u,v)^{-α} for every pair, shared by every layer that
// computes interference.
type Instance struct {
	pts    []geom.Point
	params Params

	deltaOnce sync.Once
	delta     float64

	gainOnce   sync.Once
	gain       []float64     // row-major, entry v·gainStride+u = d(u,v)^{-α} for u, v < n; nil if over budget
	gainStride int           // row stride of gain: n for an exact table, more for one with spare space
	gainNodes  *atomic.Int64 // rows and columns written in gain's spare-space store (extend.go); nil for an exact table
	gainReady  atomic.Bool   // set once gainOnce has resolved (built, seeded, or skipped)

	qtMu sync.Mutex
	qt   map[float64]*QuadTree // far-field plans keyed by requested ε (quadtree.go)
}

// NewInstance creates an instance over pts. The points are not copied; the
// caller must not mutate them afterwards. Delta (the max/min distance ratio)
// is computed lazily on first use.
func NewInstance(pts []geom.Point, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Instance{pts: pts, params: params}, nil
}

// MustInstance is NewInstance for static inputs known to be valid.
func MustInstance(pts []geom.Point, params Params) *Instance {
	in, err := NewInstance(pts, params)
	if err != nil {
		panic(err)
	}
	return in
}

// Len returns the number of nodes.
func (in *Instance) Len() int { return len(in.pts) }

// Params returns the physical parameters.
func (in *Instance) Params() Params { return in.params }

// Point returns the location of node i.
func (in *Instance) Point(i int) geom.Point { return in.pts[i] }

// Points returns the underlying point slice (not a copy; read-only by
// convention).
func (in *Instance) Points() []geom.Point { return in.pts }

// Dist returns the distance between nodes u and v.
func (in *Instance) Dist(u, v int) float64 { return in.pts[u].Dist(in.pts[v]) }

// Length returns the length d(From, To) of link l.
func (in *Instance) Length(l Link) float64 { return in.Dist(l.From, l.To) }

// Delta returns the max/min pairwise distance ratio Δ of the instance,
// computed once and cached. Safe for concurrent use: instances are shared
// read-only across a session's concurrent runs, so the lazy fill is
// guarded by a sync.Once.
func (in *Instance) Delta() float64 {
	in.deltaOnce.Do(func() { in.delta = geom.Delta(in.pts) })
	return in.delta
}

// Upsilon returns the paper's Υ = O(log log Δ + log n) measured concretely as
// max(1, log₂log₂Δ) + log₂n. It governs the cost of oblivious (mean) power
// relative to arbitrary power.
func (in *Instance) Upsilon() float64 {
	return Upsilon(in.Len(), in.Delta())
}

// Upsilon computes log₂log₂(Δ) + log₂(n), clamped below at 1. It is exposed
// as a function so experiment code can normalize against it without an
// Instance.
func Upsilon(n int, delta float64) float64 {
	loglogD := 0.0
	if delta > 2 {
		loglogD = math.Log2(math.Log2(delta))
	}
	u := loglogD + math.Log2(math.Max(2, float64(n)))
	if u < 1 {
		return 1
	}
	return u
}
