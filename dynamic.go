package sinrconn

// Dynamic-membership operations: the extensions the paper's conclusion
// calls for ("asynchronous node wakeup, node and link failures"). All of
// them live on the Network handle, operate on an existing Result, and
// return a fresh one; the original is never mutated, so memoized Results
// stay safe to share.

import (
	"context"
	"errors"
	"fmt"

	"sinrconn/internal/core"
	"sinrconn/internal/geom"
	"sinrconn/internal/serve/cache"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// checkBound rejects a Result that is not bound to the receiver Network
// (or to any Network at all).
func (nw *Network) checkBound(r *Result) error {
	if r == nil || r.nw == nil {
		return errors.New("sinrconn: result is not bound to a network")
	}
	if r.nw != nw {
		return errors.New("sinrconn: result belongs to a different network (use r.Network())")
	}
	return nil
}

// opSettings resolves options for an operation on an existing result
// (join, repair, physical epoch). WithPhys is rejected because the result
// fixes the physics. The caller has already been admitted via beginOp —
// Close's contract refuses new work uniformly, not just Run.
func (nw *Network) opSettings(opts []RunOption) (settings, error) {
	s, err := nw.runSettings(opts)
	if err != nil {
		return s, err
	}
	if s.physSet {
		return s, errors.New("sinrconn: WithPhys does not apply to joins, repairs, or physical epochs (the result fixes the physics)")
	}
	return s, nil
}

// beginResultOp admits a join, repair or physical epoch on r: r must be
// bound to nw, the handle open, and opts free of WithPhys. The caller must
// call done once the operation has finished.
func (nw *Network) beginResultOp(r *Result, opts []RunOption) (s settings, done func(), err error) {
	if err := nw.checkBound(r); err != nil {
		return s, nil, err
	}
	if done, err = nw.beginOp(); err != nil {
		return s, nil, err
	}
	if s, err = nw.opSettings(opts); err != nil {
		done()
		return s, nil, err
	}
	return s, done, nil
}

// Join attaches newly awakened nodes at newPts to r's bi-tree,
// distributedly (members acknowledge, joiners ladder through distance
// classes — see core.Join). The new nodes receive indices starting at the
// current node count, in input order. The new coordinates must be finite
// and the grown bounding box's squared diagonal must not overflow
// (ErrInvalidGeometry otherwise). The combined point set must keep
// minimum pairwise distance ≥ 1, reported as ErrNotNormalized otherwise;
// joins never renormalize, since that would silently move existing nodes.
//
// The grown deployment reuses this session's state: the enlarged physics
// instance is derived from the run's instance by extending its gain table
// (only the new rows/columns are computed) and the join protocol runs on
// this Network's worker pool. The returned Result is bound to a derived
// Network over the enlarged point set — reachable via Result.Network() —
// which shares this handle's pool and needs no separate Close. After this
// handle closes, the derived one still runs, with its engines running
// every stage inline instead of on the pool.
func (nw *Network) Join(ctx context.Context, r *Result, newPts []Point, opts ...RunOption) (*Result, error) {
	s, done, err := nw.beginResultOp(r, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	if len(newPts) == 0 {
		return nil, errors.New("sinrconn: no points to join")
	}
	// The physical parameters always come from r's instance (never from
	// s): a join extends an existing deployment, it does not
	// re-parameterize it.
	oldTree := r.Tree.inner
	oldInst := r.Tree.inst

	extra := make([]geom.Point, len(newPts))
	joiners := make([]int, len(newPts))
	for i, p := range newPts {
		extra[i] = geom.Point{X: p.X, Y: p.Y}
		joiners[i] = oldInst.Len() + i
	}
	merged := make([]geom.Point, 0, oldInst.Len()+len(extra))
	merged = append(append(merged, oldInst.Points()...), extra...)
	if err := checkGeometry(merged); err != nil {
		return nil, err
	}
	if md := geom.MinDist(merged); md < 1-1e-9 {
		return nil, fmt.Errorf("%w: min distance %v after join", ErrNotNormalized, md)
	}
	in, err := oldInst.Extend(extra)
	if err != nil {
		return nil, err
	}
	ff, err := opFarField(r, in, s)
	if err != nil {
		return nil, err
	}
	ch, release := nw.channel(s, ff)
	defer release()
	jres, err := core.Join(ctx, in, oldTree, joiners, initConfig(s, ch))
	if err != nil {
		return nil, err
	}
	return nw.derive(in).finishResult(in, jres.Tree, Metrics{
		SlotsUsed:      jres.SlotsUsed,
		ScheduleLength: jres.Tree.NumSlots(),
		Rounds:         jres.Rounds,
		Energy:         jres.Stats.Energy,
	}, ff)
}

// derive builds the Network bound to a join-grown instance: same settings,
// the parent's pool by reference, and the grown instance pre-cached.
func (nw *Network) derive(in *sinr.Instance) *Network {
	root := nw
	if nw.parent != nil {
		root = nw.parent
	}
	return &Network{
		pts:    in.Points(),
		base:   nw.base,
		parent: root,
		insts:  map[sinr.Params]*sinr.Instance{in.Params(): in},
		memo:   cache.New[runKey, *Result](nw.base.cacheSize, nw.base.cacheTTL),
	}
}

// Repair removes the given (failed) node indices from r's tree and
// reconnects the survivors: orphaned subtrees re-attach as units via the
// join protocol and the schedule is recomputed (see core.Repair). If the
// root failed, the largest orphan subtree is promoted. The repaired Result
// stays bound to this Network (the point set is unchanged; failed nodes
// simply no longer appear in the tree).
func (nw *Network) Repair(ctx context.Context, r *Result, failed []int, opts ...RunOption) (*Result, error) {
	return nw.repair(r, opts, "nodes", len(failed), func(in *sinr.Instance, bt *tree.BiTree, cfg core.InitConfig) (*core.RepairResult, error) {
		return core.Repair(ctx, in, bt, failed, cfg)
	})
}

// RepairLinks handles permanent link failures: the given tree links have
// become unusable (an obstacle the path-loss model cannot see) while both
// endpoints remain alive. The orphaned subtrees re-attach via the join
// protocol — explicitly forbidden from re-forming the failed links — and
// the schedule is recomputed.
func (nw *Network) RepairLinks(ctx context.Context, r *Result, links []Link, opts ...RunOption) (*Result, error) {
	failed := make([]sinr.Link, len(links))
	for i, l := range links {
		failed[i] = sinr.Link{From: l.From, To: l.To}
	}
	return nw.repair(r, opts, "links", len(failed), func(in *sinr.Instance, bt *tree.BiTree, cfg core.InitConfig) (*core.RepairResult, error) {
		return core.RepairLinks(ctx, in, bt, failed, cfg)
	})
}

// repair is the body Repair and RepairLinks share: fix runs the core
// repair of n failed nodes or links (what; none is an error) on r's tree
// under the operation's settings, on this session's pool.
func (nw *Network) repair(r *Result, opts []RunOption, what string, n int,
	fix func(*sinr.Instance, *tree.BiTree, core.InitConfig) (*core.RepairResult, error)) (*Result, error) {
	s, done, err := nw.beginResultOp(r, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	if n == 0 {
		return nil, fmt.Errorf("sinrconn: no failed %s given", what)
	}
	in := r.Tree.inst
	ff, err := opFarField(r, in, s)
	if err != nil {
		return nil, err
	}
	ch, release := nw.channel(s, ff)
	defer release()
	rres, err := fix(in, r.Tree.inner, initConfig(s, ch))
	if err != nil {
		return nil, err
	}
	return nw.finishResult(in, rres.Tree, Metrics{
		SlotsUsed:      rres.SlotsUsed,
		ScheduleLength: rres.ScheduleLength,
		Energy:         rres.Stats.Energy,
	}, ff)
}
