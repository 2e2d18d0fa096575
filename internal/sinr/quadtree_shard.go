package sinr

// Sharded bottom-up accumulation: the parallel form of QuadScratch.
// Accumulate for dense slots. The pyramid is cut at level s = min(3, L)
// into the 4^s level-s subtrees ("shards"); in Morton layout each shard's
// nodes occupy one contiguous local-id range per level, so shards write
// disjoint regions of every array and can run on any workers in any order
// with no synchronization. The protocol is
//
//	AccumBegin(txs)            — serial: epoch, counting-sort txs by shard
//	AccumShard(sh, txs) × 4^s  — parallel, any order/worker assignment
//	AccumFinish()              — serial: fold levels s..1, normalize 0..s
//
// and the result is bit-identical to the serial Accumulate
// (TestShardedAccumulateDeterminism), because every float fold happens in
// the same order:
//
//   - Leaf folds. The counting sort is stable, so a shard sees its txs in
//     global tx order — each leaf's sums fold in exactly the serial order.
//   - Within-shard parent folds. Every active list (serial and sharded) is
//     ordered by the earliest tx index under the node — at level L first
//     touch IS first tx, and inductively a parent is first touched by its
//     earliest child. A shard's restricted lists therefore equal the serial
//     lists restricted to the shard's subtree, and all children of any
//     parent share a shard, so each parent's sums fold in the serial order.
//   - The cross-shard merge. AccumFinish seeds the level-s active list with
//     the occupied shards in first-tx order (recorded by the counting
//     sort), which by the invariant above equals the serial level-s list;
//     levels s−1..0 then fold exactly as the serial pass.
//
// Leaf bucketing writes each shard's txs into its own disjoint segment of
// sc.order/sx/sy/sp (segment offsets from the counting sort), so each
// leaf's bucket holds the same txs in the same order as the serial pass —
// the only property the exact scans read. O(len(txs) + occupied nodes)
// total across shards; allocation-free after the first AccumBegin sizes
// the arena.

// accumShardLog is the maximum shard-level depth: s = min(3, L), so at
// most 4³ = 64 shards — enough to feed every worker of a wide pool while
// keeping the serial fold in AccumFinish trivially small.
const accumShardLog = 3

// AccumShards returns the number of shards the scratch's plan supports, or
// 1 when the pyramid is too shallow to be worth cutting (callers should
// then use the serial Accumulate).
func (sc *QuadScratch) AccumShards() int {
	l := sc.q.levels
	if l < 2 {
		return 1
	}
	s := l
	if s > accumShardLog {
		s = accumShardLog
	}
	return 1 << (2 * uint(s))
}

// ensureShards lazily sizes the sharded-accumulate state: the stable
// counting-sort buffer and the per-level, per-shard active-list arena
// (one slot per node of levels s..L, segmented so every shard owns the
// contiguous Morton range of its subtree).
func (sc *QuadScratch) ensureShards() {
	if sc.shardsReady {
		return
	}
	q := sc.q
	l := q.levels
	s := l
	if s > accumShardLog {
		s = accumShardLog
	}
	sc.shardS = s
	sc.shardTx = make([]int32, len(q.in.pts))
	sc.shardABase = make([]int32, l+1)
	base := int32(0)
	for lvl := s; lvl <= l; lvl++ {
		sc.shardABase[lvl] = base
		base += (int32(1) << uint(lvl)) * (int32(1) << uint(lvl))
	}
	sc.shardArena = make([]int32, base)
	sc.shardCnt = make([][]int32, l+1)
	for lvl := s; lvl <= l; lvl++ {
		sc.shardCnt[lvl] = make([]int32, 1<<(2*uint(s)))
	}
	sc.shardsReady = true
}

// AccumBegin opens a sharded accumulation epoch: it advances the scratch
// epoch and counting-sorts the slot's txs by shard (stable, so each shard
// sees its txs in global tx order), recording the occupied shards in
// first-tx order for AccumFinish's deterministic merge. Serial; call it
// before dispatching AccumShard.
//sinr:hotpath
func (sc *QuadScratch) AccumBegin(txs []Tx) {
	sc.ensureShards()
	q := sc.q
	sc.beginEpoch()
	for lvl := range sc.active {
		sc.active[lvl] = sc.active[lvl][:0]
	}
	s := sc.shardS
	l := q.levels
	shift := 2 * uint(l-s)
	nsh := 1 << (2 * uint(s))
	var cnt [maxAccumShards]int32
	sc.shardN = 0
	for i := range txs {
		sh := q.leafOf[txs[i].Sender] >> shift
		if cnt[sh] == 0 {
			sc.shardList[sc.shardN] = sh
			sc.shardN++
		}
		cnt[sh]++
	}
	sc.shardSeg[0] = 0
	for sh := 0; sh < nsh; sh++ {
		sc.shardSeg[sh+1] = sc.shardSeg[sh] + cnt[sh]
		cnt[sh] = 0
	}
	for i := range txs {
		sh := q.leafOf[txs[i].Sender] >> shift
		sc.shardTx[sc.shardSeg[sh]+cnt[sh]] = int32(i)
		cnt[sh]++
	}
	for lvl := s; lvl <= l; lvl++ {
		c := sc.shardCnt[lvl]
		for sh := 0; sh < nsh; sh++ {
			c[sh] = 0
		}
	}
}

// AccumShard folds shard sh's txs into the shard's subtree: leaf
// aggregates and bucketing in (global) tx order, per-level parent folds in
// first-touch order, then centroid normalization for the shard's levels
// below the cut (level s stays raw for AccumFinish). Safe to run
// concurrently with other shards — all writes land in the shard's disjoint
// Morton ranges.
//sinr:hotpath
func (sc *QuadScratch) AccumShard(sh int, txs []Tx) {
	lo, hi := sc.shardSeg[sh], sc.shardSeg[sh+1]
	if lo == hi {
		return
	}
	q := sc.q
	ep := sc.epoch
	l := q.levels
	s := sc.shardS
	leafOff := q.levelOff[l]
	lbase := sc.shardABase[l] + int32(sh)<<(2*uint(l-s))
	nleaf := int32(0)
	for k := lo; k < hi; k++ {
		i := sc.shardTx[k]
		t := q.leafOf[txs[i].Sender]
		g := leafOff + t
		nd := &sc.node[g]
		if sc.touch(g, ep) {
			sc.fill[t] = 0
			sc.shardArena[lbase+nleaf] = t
			nleaf++
		}
		nd.fold(txs[i].Power, q.in.pts[txs[i].Sender])
		sc.fill[t]++
	}
	sc.shardCnt[l][sh] = nleaf
	ofs := lo
	for k := int32(0); k < nleaf; k++ {
		t := sc.shardArena[lbase+k]
		sc.start[t] = ofs
		ofs += sc.fill[t]
		sc.fill[t] = 0
	}
	for k := lo; k < hi; k++ {
		i := sc.shardTx[k]
		t := q.leafOf[txs[i].Sender]
		idx := sc.start[t] + sc.fill[t]
		sc.order[idx] = i
		pt := q.in.pts[txs[i].Sender]
		sc.sx[idx] = pt.X
		sc.sy[idx] = pt.Y
		sc.sp[idx] = txs[i].Power
		sc.fill[t]++
	}
	for lvl := l; lvl > s; lvl-- {
		childOff := q.levelOff[lvl]
		parentOff := q.levelOff[lvl-1]
		cbase := sc.shardABase[lvl] + int32(sh)<<(2*uint(lvl-s))
		pbase := sc.shardABase[lvl-1] + int32(sh)<<(2*uint(lvl-1-s))
		np := int32(0)
		for k := int32(0); k < sc.shardCnt[lvl][sh]; k++ {
			t := sc.shardArena[cbase+k]
			pl := t >> 2
			pg := parentOff + pl
			if sc.touch(pg, ep) {
				sc.shardArena[pbase+np] = pl
				np++
			}
			sc.foldChild(pg, childOff+t, t)
		}
		sc.shardCnt[lvl-1][sh] = np
	}
	for lvl := s + 1; lvl <= l; lvl++ {
		abase := sc.shardABase[lvl] + int32(sh)<<(2*uint(lvl-s))
		sc.normalize(q.levelOff[lvl], sc.shardArena[abase:abase+sc.shardCnt[lvl][sh]])
	}
	if sc.prec32 {
		sc.round32Shard(sh)
	}
}

// AccumFinish completes a sharded accumulation: it seeds the level-s
// active list with the occupied shards in first-tx order — which equals
// the serial pass's first-touch order, since every active list is ordered
// by earliest tx under the node — then folds levels s..1 and normalizes
// levels 0..s exactly as the serial pass does. Serial; call it after every
// AccumShard has returned.
//sinr:hotpath
func (sc *QuadScratch) AccumFinish() {
	q := sc.q
	ep := sc.epoch
	s := sc.shardS
	as := sc.active[s]
	for k := 0; k < sc.shardN; k++ {
		//lint:ignore hotpathalloc as aliases preallocated sc.active[s]; occupied shards never exceed its capacity
		as = append(as, sc.shardList[k])
	}
	sc.active[s] = as
	for lvl := s; lvl > 0; lvl-- {
		childOff := q.levelOff[lvl]
		parentOff := q.levelOff[lvl-1]
		plist := sc.active[lvl-1]
		for _, t := range sc.active[lvl] {
			pl := t >> 2
			pg := parentOff + pl
			if sc.touch(pg, ep) {
				//lint:ignore hotpathalloc plist aliases preallocated sc.active[lvl-1]; occupied parents never exceed its capacity
				plist = append(plist, pl)
			}
			sc.foldChild(pg, childOff+t, t)
		}
		sc.active[lvl-1] = plist
	}
	for lvl := 0; lvl <= s; lvl++ {
		sc.normalize(q.levelOff[lvl], sc.active[lvl])
	}
	if sc.prec32 {
		sc.round32Finish()
	}
}
