package sinrconn

import (
	"errors"

	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// Point is a node location in the plane. The paper's normalization (minimum
// pairwise distance 1) is required; Open enforces it unless
// WithAutoNormalize is set.
type Point struct {
	X, Y float64
}

// Link is a directed transmission request between node indices.
type Link struct {
	From, To int
}

// ScheduledLink is a link with its schedule slot and transmission power.
type ScheduledLink struct {
	Link
	// Slot is the 1-based schedule slot.
	Slot int
	// Power is the sender's transmission power in that slot.
	Power float64
}

// PhysParams are the SINR physical constants.
type PhysParams struct {
	// Alpha is the path-loss exponent (≥ 2).
	Alpha float64
	// Beta is the SINR decoding threshold.
	Beta float64
	// Noise is the ambient noise floor.
	Noise float64
}

// DefaultPhysParams returns α = 3, β = 1.5, N = 1.
func DefaultPhysParams() PhysParams {
	p := sinr.DefaultParams()
	return PhysParams{Alpha: p.Alpha, Beta: p.Beta, Noise: p.Noise}
}

// Metrics reports the cost of a pipeline run.
type Metrics struct {
	// SlotsUsed is the total channel time (simulator slots) the distributed
	// construction consumed.
	SlotsUsed int
	// ScheduleLength is the number of slots in the final link schedule.
	ScheduleLength int
	// Rounds is the number of Section 6 ladder rounds (length classes plus
	// safety rounds) run: Init's for PipelineInit and
	// PipelineRescheduleMean, the join protocol's for Network.Join. It is 0
	// for the TVC pipelines, Repair, RepairLinks and churn traces.
	Rounds int
	// Iterations is TreeViaCapacity's iteration count (Section 8 only).
	Iterations int
	// Upsilon is the instance's Υ = log log Δ + log n.
	Upsilon float64
	// Delta is the instance's max/min distance ratio.
	Delta float64
	// AggregationLatency and BroadcastLatency are replay-verified slot
	// counts for converge-cast and broadcast on the bi-tree.
	AggregationLatency int
	BroadcastLatency   int
	// Energy is the total transmission energy (sum of powers over all
	// transmissions) the construction spent on the channel, including
	// rescheduling and selection-protocol traffic for the Section 7/8
	// pipelines.
	Energy float64
}

// BiTree is the public view of a constructed bi-tree.
type BiTree struct {
	// Root is the converge-cast destination.
	Root int
	// Up lists the aggregation links (node → parent), scheduled leaf-first.
	Up []ScheduledLink
	// NumNodes is the number of nodes spanned.
	NumNodes int

	inner *tree.BiTree
	inst  *sinr.Instance
	// ff is the far-field plan the construction ran under (nil = exact);
	// operations on the result inherit it.
	ff *sinr.QuadTree
}

// Parent returns each non-root node's parent.
func (b *BiTree) Parent() map[int]int { return b.inner.Parent() }

// MaxDegree returns the maximum node degree in the tree.
func (b *BiTree) MaxDegree() int { return b.inner.MaxDegree() }

// Depth returns the maximum hop distance to the root.
func (b *BiTree) Depth() int { return b.inner.Depth() }

// PairLatency replays a node-to-node message (up the aggregation schedule,
// down the dissemination schedule) and returns the slots consumed.
func (b *BiTree) PairLatency(src, dst int) (int, error) {
	return b.inner.PairLatency(src, dst)
}

// Verify re-checks every structural property: spanning tree shape, strong
// connectivity, aggregation ordering, and per-slot SINR feasibility of the
// schedule. It is cheap insurance for downstream users. A tree built under
// WithMaxRelError(ε > 0) is validated under the matching (1±ε) guard band
// at the β cut: a schedule that is exactly feasible is never rejected, and
// a failure certifies a slot whose exact SINR falls below β — including a
// link the approximate channel accepted inside its error band, which is a
// genuinely sub-β link being reported rather than silently passed (the
// construction's SafePower margins keep decisions away from the cut in
// practice). See sinr.Instance.SINRFeasibleFarBuf for the exact
// completeness/soundness contract.
func (b *BiTree) Verify() error {
	return auditTree(b.inner, b.inst, b.ff)
}

// auditTree is the one invariant battery a bi-tree over in must pass: its
// shape, strong connectivity, the Definition 1 ordering, and per-slot SINR
// feasibility (under the far-field plan ff when non-nil). Verify runs it
// on a finished tree, and the churn audit on the live tree after every
// event.
func auditTree(bt *tree.BiTree, in *sinr.Instance, ff *sinr.QuadTree) error {
	if err := bt.Validate(); err != nil {
		return err
	}
	if !bt.StronglyConnected() {
		return errors.New("sinrconn: tree not strongly connected")
	}
	if err := bt.ValidateOrdering(); err != nil {
		return err
	}
	return bt.ValidatePerSlotFeasibleFar(in, ff)
}

// Result bundles a constructed tree with its metrics. Results returned by
// a Network are bound to their handle: joins, repairs, and physical epochs reuse its instances
// and worker pool. Results are immutable — every operation returns a fresh
// one — so a memoized Result may be shared by concurrent callers.
type Result struct {
	Tree    *BiTree
	Metrics Metrics

	nw *Network
}

// Network returns the session handle this result is bound to. For results
// grown by Join it is a derived handle over the enlarged point set (sharing
// the original's worker pool).
func (r *Result) Network() *Network { return r.nw }

// ErrNotNormalized reports input whose minimum pairwise distance is below 1
// when normalization is off (WithAutoNormalize at Open; joins never
// renormalize). Test with errors.Is.
var ErrNotNormalized = errors.New("sinrconn: minimum pairwise distance below 1 (set AutoNormalize)")

// ErrInvalidGeometry reports a point set no distance computation can use: a
// NaN or infinite coordinate, a deployment so wide that the squared
// distance across its bounding box overflows float64, or (with
// WithAutoNormalize) coincident points. Open and Join return it; retrying
// cannot help. Test with errors.Is.
var ErrInvalidGeometry = errors.New("sinrconn: invalid geometry")

// ErrInvalidOption reports an option value outside its documented domain:
// a drop probability outside [0, 1), physical constants Validate rejects
// (α below 2, say), a negative result-cache size, or an Open-scoped option
// passed to a run. Open and Run return it; retrying with the same value
// cannot help. Test with errors.Is.
var ErrInvalidOption = errors.New("sinrconn: invalid option")

func publicTree(in *sinr.Instance, bt *tree.BiTree, ff *sinr.QuadTree) *BiTree {
	out := &BiTree{
		Root:     bt.Root,
		NumNodes: len(bt.Nodes),
		inner:    bt,
		inst:     in,
		ff:       ff,
	}
	for _, tl := range bt.Up {
		out.Up = append(out.Up, ScheduledLink{
			Link:  Link{From: tl.L.From, To: tl.L.To},
			Slot:  tl.Slot,
			Power: tl.Power,
		})
	}
	return out
}

func fillLatencies(m *Metrics, bt *tree.BiTree) error {
	agg, err := bt.AggregationLatency()
	if err != nil {
		return err
	}
	bc, err := bt.BroadcastLatency()
	if err != nil {
		return err
	}
	m.AggregationLatency = agg
	m.BroadcastLatency = bc
	return nil
}
