package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// chatterProto acts from a hash of (salt, slot, id) and ignores its inbox,
// so a ranged and an unranged engine step it through the same actions.
type chatterProto struct {
	id    int
	salt  int64
	power float64
}

func (p *chatterProto) Step(slot int, _ []Delivery) Action {
	switch c := dropCoin(p.salt, slot, p.id); {
	case c < 0.25:
		return Transmit(p.power, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee, Tag: slot})
	case c < 0.9:
		return Listen()
	}
	return Idle()
}

// rangeRun is one engine run of the listen-range differential: every
// delivery each node received, the stats, how many listener-slots were
// decoded, how many slots with a sender resolved far and exact, and
// whether the gate's cell grid could be used.
type rangeRun struct {
	got        [][]Delivery
	stats      Stats
	decoded    int
	far, exact int
	gridOK     bool
	cells      int // occupied cells of the last grid
}

// checkGateSlot asserts that the listeners the engine decoded in the slot
// it just ran are exactly those a brute-force scan of the live and held
// nodes keeps. In a slot with a sender, the address gate drops every
// addressed listener that no sender addresses and, under a range r > 0,
// the listen gate every listener that no sender is closer than r to, by
// Instance.Dist from the sender. A slot with no sender keeps every
// listener that was live in it and adds no held one, so there only the
// listeners not held now are compared.
func checkGateSlot(t *testing.T, label string, e *Engine) {
	t.Helper()
	var want []int32
	nodes, got := slices.Clone(e.live), e.lis
	if len(e.txs) > 0 {
		nodes = append(nodes, e.held.nodes...)
		slices.Sort(nodes)
	} else if e.held.at != nil {
		got = slices.DeleteFunc(slices.Clone(got), func(v int32) bool { return e.held.at[v] >= 0 })
	}
	for _, v := range nodes {
		kind := kindIn(e, v)
		if kind != ActionListen && kind != ActionListenAddressed {
			continue
		}
		addressed, inRange := false, false
		for _, tx := range e.txs {
			addressed = addressed || e.actions[tx.Sender].Msg.To == int(v)
			inRange = inRange || e.inst.Dist(tx.Sender, int(v)) < e.listenRange
		}
		keep := len(e.txs) == 0 ||
			(kind == ActionListen || addressed) && (!(e.listenRange > 0) || inRange)
		if keep {
			want = append(want, v)
		}
	}
	if !slices.Equal(want, got) {
		t.Fatalf("%s: slot %d: the gates kept listeners %v, brute force %v", label, e.slot-1, got, want)
	}
}

// runRanged runs chatterProto nodes over in for slots slots under listen
// range r with the listener gate on (gate), when it must keep exactly the
// listeners checkGateSlot finds in every slot, or off, or with no range at
// all when r is 0. Pooled configs fan every stage out.
func runRanged(t *testing.T, in *sinr.Instance, cfg Config, salt int64, slots int, r float64, gate bool) rangeRun {
	t.Helper()
	cfg.noListenGate = !gate
	if cfg.Pool != nil {
		cfg.forceFan = fanAlways
	}
	n := in.Len()
	power := in.Params().SafePower(4)
	procs := make([]Protocol, n)
	recs := make([]*recordProto, n)
	for i := range procs {
		recs[i] = &recordProto{inner: &chatterProto{id: i, salt: salt, power: power}}
		procs[i] = recs[i]
	}
	e := mustEngine(t, in, procs, cfg)
	if r != 0 {
		e.SetListenRange(r)
	}
	var run rangeRun
	for s := 0; s < slots; s++ {
		e.Step()
		if gate {
			checkGateSlot(t, "runRanged", e)
		}
		run.decoded += len(e.lis)
		if e.farSlot {
			run.far++
		} else if len(e.txs) > 0 {
			run.exact++
		}
	}
	run.got = make([][]Delivery, n)
	for i, rec := range recs {
		// The last slot's deliveries are still in the engine's inboxes.
		run.got[i] = append(rec.got, e.inboxes[i]...)
	}
	run.stats = e.Stats()
	run.gridOK, run.cells = e.gate.ok, len(e.gate.cells)
	return run
}

// keepInRange is the reference filter: the deliveries a listen range r
// keeps, with SetListenRange's reading of r ≤ 0 and NaN as no range.
func keepInRange(got [][]Delivery, r float64) (kept [][]Delivery, n, cut int) {
	kept = make([][]Delivery, len(got))
	for i, ds := range got {
		for _, d := range ds {
			if r > 0 && !(d.Dist < r) {
				cut++
				continue
			}
			kept[i] = append(kept[i], d)
			n++
		}
	}
	return kept, n, cut
}

// checkListenRange runs the differential for one instance, config and
// range: an unranged run whose deliveries at Dist ≥ r are removed
// afterwards must match, inbox for inbox, a ranged run with the listener
// gate forced on and one with it forced off, and those two must agree on
// every counter. It returns the unranged run, the gated run and the
// number of deliveries the range cut, for coverage checks.
func checkListenRange(t *testing.T, label string, in *sinr.Instance, cfg Config, salt int64, slots int, r float64) (ref, gated rangeRun, cut int) {
	t.Helper()
	ref = runRanged(t, in, cfg, salt, slots, 0, false)
	want, kept, cut := keepInRange(ref.got, r)
	gated = runRanged(t, in, cfg, salt, slots, r, true)
	ungated := runRanged(t, in, cfg, salt, slots, r, false)
	assertRunsEqual(t, label+": gate on vs off", gated.got, ungated.got, gated.stats, ungated.stats)
	for i := range want {
		if len(want[i]) != len(gated.got[i]) {
			t.Fatalf("%s: node %d: %d deliveries in range, the ranged engine kept %d", label, i, len(want[i]), len(gated.got[i]))
		}
		for k := range want[i] {
			if want[i][k] != gated.got[i][k] {
				t.Fatalf("%s: node %d delivery %d: %+v vs %+v", label, i, k, want[i][k], gated.got[i][k])
			}
		}
	}
	if gated.stats.Deliveries != kept {
		t.Fatalf("%s: ranged engine counts %d deliveries, %d are in range", label, gated.stats.Deliveries, kept)
	}
	if s, w := gated.stats, ref.stats; s.Slots != w.Slots || s.Transmissions != w.Transmissions || s.Energy != w.Energy {
		t.Fatalf("%s: ranged stats %+v vs unranged %+v", label, s, w)
	}
	if ungated.decoded != ref.decoded || gated.decoded > ungated.decoded {
		t.Fatalf("%s: decoded listener-slots %d unranged, %d ungated, %d gated", label, ref.decoded, ungated.decoded, gated.decoded)
	}
	return ref, gated, cut
}

// latticePoints is a side×side lattice of spacing d with the origin at
// (0, 0), so every coordinate is an exact multiple of d.
func latticePoints(side int, d float64) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for j := 0; j < side; j++ {
		for i := 0; i < side; i++ {
			pts = append(pts, geom.Point{X: float64(i) * d, Y: float64(j) * d})
		}
	}
	return pts
}

// TestListenRangeMatchesFilter pins SetListenRange against its
// definition: a ranged engine's inboxes equal an unranged engine's with
// every delivery at Dist ≥ r removed, bit for bit, and its counters do not
// depend on whether the listener gate ran; in every slot the gate keeps
// exactly the listeners some sender is closer than r to. It covers the
// gain table, on-the-fly exact decode, far-field decode, serial and pooled
// engines and drops, over a jittered grid, a lattice whose points sit on
// cell boundaries with senders at exactly r and at math.Nextafter(r, 0),
// duplicate points, a lattice that fits in one cell, and a chain with
// Δ = 2⁴⁰ whose cell coordinates overflow, so the gate falls back to
// comparing every listener with every sender.
func TestListenRangeMatchesFilter(t *testing.T) {
	const slots = 16
	quad := func(in *sinr.Instance) *sinr.QuadTree {
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	grid := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(17)), 192, 2.6, 0.8), sinr.DefaultParams())
	// A 12×12 lattice of spacing 2, plus midpoints along its top row so
	// that some deliveries fall inside r = 2.
	latPts := latticePoints(12, 2)
	for i := 0; i < 6; i++ {
		latPts = append(latPts, geom.Point{X: float64(4*i + 1), Y: 22})
	}
	lattice := sinr.MustInstance(latPts, sinr.DefaultParams())
	dupPts := workload.JitteredGrid(rand.New(rand.NewSource(5)), 96, 2.6, 0.8)
	for i := 0; i < 96; i += 6 {
		dupPts = append(dupPts, dupPts[i])
	}
	dups := sinr.MustInstance(dupPts, sinr.DefaultParams())
	var chainPts []geom.Point
	for k := 0; k <= 40; k++ {
		x := math.Ldexp(1, k)
		chainPts = append(chainPts, geom.Point{X: x}, geom.Point{X: x + 1, Y: 0.5})
	}
	chain := sinr.MustInstance(chainPts, sinr.DefaultParams())
	// A 4×4 lattice of spacing 0.3 spans 0.9 < r = 1 on each axis, so
	// every node shares one cell.
	oneCell := sinr.MustInstance(latticePoints(4, 0.3), sinr.DefaultParams())

	exactCfgs := []Config{
		{},
		{Pool: testPool(t, 4)},
		{DropProb: 0.2, Seed: 3},
		{Pool: testPool(t, 4), DropProb: 0.2, Seed: 3},
	}
	farCfgs := func(q *sinr.QuadTree) []Config {
		return []Config{
			{Far: q, AdaptiveCrossover: 1 << 30}, // exact, on the fly
			{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 1 << 30, DropProb: 0.2, Seed: 3},
			{Far: q, AdaptiveCrossover: 1}, // every slot far
			{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 1, DropProb: 0.2, Seed: 3},
			{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 1},
			{Pool: testPool(t, 4), Far: q, AdaptiveCrossover: 40},
		}
	}
	cases := []struct {
		name string
		in   *sinr.Instance
		cfgs []Config
		rs   []float64
		// fallback: the instance spans too many cells for the grid.
		fallback bool
		// cells, if non-zero, is the number of cells the grid must hold.
		cells int
		// atR: some unranged delivery lies at exactly this distance.
		atR float64
	}{
		{name: "grid", in: grid, cfgs: append(exactCfgs, farCfgs(quad(grid))...), rs: []float64{2, 2.6, 3.2}},
		// Lattice spacing 2: its neighbours sit at exactly r = 2, which
		// the range cuts, and at Nextafter(r', 0) for r' just above 2,
		// which it keeps.
		{name: "lattice-at-r", in: lattice, cfgs: append(exactCfgs, farCfgs(quad(lattice))...), rs: []float64{2}, atR: 2},
		{name: "lattice-below-r", in: lattice, cfgs: exactCfgs, rs: []float64{math.Nextafter(2, 3)}, atR: 2},
		{name: "duplicates", in: dups, cfgs: append(exactCfgs, farCfgs(quad(dups))...), rs: []float64{3}},
		{name: "one-cell", in: oneCell, cfgs: exactCfgs, rs: []float64{1}, cells: 1},
		{name: "chain-2^40", in: chain, cfgs: exactCfgs, rs: []float64{2}, fallback: true},
	}
	for _, c := range cases {
		for _, r := range c.rs {
			for ci, cfg := range c.cfgs {
				label := fmt.Sprintf("%s r=%v cfg %d (workers=%d far=%v drop=%v)",
					c.name, r, ci, poolSize(cfg), cfg.Far != nil, cfg.DropProb)
				ref, gated, cut := checkListenRange(t, label, c.in, cfg, 11, slots, r)
				if cut == 0 || gated.stats.Deliveries == 0 {
					t.Fatalf("%s: the range cut %d and kept %d deliveries; want both", label, cut, gated.stats.Deliveries)
				}
				if gated.gridOK == c.fallback {
					t.Fatalf("%s: cell grid usable = %v", label, gated.gridOK)
				}
				if c.cells > 0 && gated.cells != c.cells {
					t.Fatalf("%s: the grid holds %d cells, want %d", label, gated.cells, c.cells)
				}
				if cfg.AdaptiveCrossover == 1 && (gated.far == 0 || gated.exact != 0) {
					t.Fatalf("%s: forced far engine resolved %d slots far and %d exact", label, gated.far, gated.exact)
				}
				if gated.decoded >= ref.decoded {
					t.Fatalf("%s: the gate decoded %d of %d listener-slots", label, gated.decoded, ref.decoded)
				}
				if c.atR > 0 && !hasDist(ref.got, c.atR) {
					t.Fatalf("%s: no delivery at distance %v", label, c.atR)
				}
			}
		}
	}
}

func hasDist(got [][]Delivery, d float64) bool {
	for _, ds := range got {
		for _, x := range ds {
			if x.Dist == d {
				return true
			}
		}
	}
	return false
}

// TestGateBandMatchesDist pins the gate's guard band (bandSlack): for
// senders at r·(1 + k·2⁻⁵²), k ∈ −8..8, and just inside and outside both
// band edges, at 97 angles around listeners near the origin and far from
// it, over ranges from 2⁻⁴⁰⁰ to 2⁴⁰⁰ and beyond the band's exponent
// window, every inRange verdict must equal Dist < r. Both the band and
// the Dist fallback must decide some of them.
func TestGateBandMatchesDist(t *testing.T) {
	var muls []float64
	for k := -8; k <= 8; k++ {
		muls = append(muls, 1+float64(k)*0x1p-52)
	}
	for _, m := range []float64{0x1p-41, 0x1p-40, 0x1p-39, 0x1p-30} {
		muls = append(muls, 1-m, 1+m)
	}
	var byBand, byDist int
	for _, r := range []float64{1, 2, 3, 0.37, 1 << 20, 0x1p-400, 0x1p400, 0x1p-460, 0x1p460} {
		var g listenGate
		g.lo, g.hi = band(r)
		for _, p := range []geom.Point{{}, {X: 0.1, Y: 7}, {X: 1e6, Y: -3e5}, {X: -r * 1e3, Y: r * 77.7}} {
			for a := 0; a < 97; a++ {
				th := 2 * math.Pi * float64(a) / 97
				for _, m := range muls {
					q := geom.Point{X: p.X + r*m*math.Cos(th), Y: p.Y + r*m*math.Sin(th)}
					want := q.Dist(p) < r
					if got := g.inRange(q, p, r); got != want {
						t.Fatalf("r=%v p=%v angle %d mul 1%+g: inRange %v, Dist %v < r is %v",
							r, p, a, m-1, got, q.Dist(p), want)
					}
					if d2 := q.DistSq(p); d2 < g.lo || d2 > g.hi {
						byBand++
					} else {
						byDist++
					}
				}
			}
		}
	}
	if byBand == 0 || byDist == 0 {
		t.Fatalf("%d verdicts from the band, %d from Dist: both sides must be exercised", byBand, byDist)
	}
}

// TestListenRangeChangeMidRun changes the range between slots while nodes
// leave: up, so a grid left over from the previous range would miss
// senders, down, off and on again. In every slot the gate must keep
// exactly the listeners some sender is closer than the current range to,
// and every inbox and counter must equal an engine's whose gate is off.
func TestListenRangeChangeMidRun(t *testing.T) {
	const n, per = 192, 6
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(29)), n, 2.6, 0.8), sinr.DefaultParams())
	ranges := []float64{2, 6, 2.5, 0, 3, 9}
	for _, cfg := range []Config{{}, {Pool: testPool(t, 4), forceFan: fanAlways, DropProb: 0.2, Seed: 3}} {
		run := func(gate bool) ([][]Delivery, Stats, int) {
			c := cfg
			c.noListenGate = !gate
			procs := make([]Protocol, n)
			recs := make([]*recordProto, n)
			for i := range procs {
				leave := -1
				if i%4 == 1 {
					leave = int(dropCoin(31, 0, i) * float64(per*len(ranges)))
				}
				recs[i] = &recordProto{inner: &departProto{id: i, leave: leave, power: in.Params().SafePower(4)}}
				procs[i] = recs[i]
			}
			e := mustEngine(t, in, procs, c)
			decoded := 0
			for _, r := range ranges {
				e.SetListenRange(r)
				for s := 0; s < per; s++ {
					e.Step()
					if gate {
						checkGateSlot(t, fmt.Sprintf("workers=%d r=%v", poolSize(cfg), r), e)
					}
					decoded += len(e.lis)
				}
			}
			got := make([][]Delivery, n)
			for i, rec := range recs {
				got[i] = append(rec.got, e.inboxes[i]...)
			}
			return got, e.Stats(), decoded
		}
		gotOn, statsOn, decodedOn := run(true)
		gotOff, statsOff, decodedOff := run(false)
		assertRunsEqual(t, fmt.Sprintf("workers=%d: gate on vs off", poolSize(cfg)), gotOn, gotOff, statsOn, statsOff)
		if statsOn.Deliveries == 0 || decodedOn >= decodedOff {
			t.Fatalf("workers=%d: %d deliveries, %d of %d listener-slots decoded", poolSize(cfg), statsOn.Deliveries, decodedOn, decodedOff)
		}
	}
}

// TestListenRangeOff pins the ways to set no range: 0, a negative range
// and NaN all leave the engine unranged, and a range set and then cleared
// behaves like none.
func TestListenRangeOff(t *testing.T) {
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(3)), 64, 2.6, 0.8), sinr.DefaultParams())
	for _, r := range []float64{0, -1, math.NaN()} {
		checkListenRange(t, fmt.Sprintf("r=%v", r), in, Config{}, 5, 8, r)
	}
	ref := runRanged(t, in, Config{}, 5, 8, 0, false)
	procs := make([]Protocol, in.Len())
	recs := make([]*recordProto, in.Len())
	for i := range procs {
		recs[i] = &recordProto{inner: &chatterProto{id: i, salt: 5, power: in.Params().SafePower(4)}}
		procs[i] = recs[i]
	}
	e := mustEngine(t, in, procs, Config{})
	e.SetListenRange(3)
	e.SetListenRange(0)
	e.Run(8)
	got := make([][]Delivery, in.Len())
	for i, rec := range recs {
		got[i] = append(rec.got, e.inboxes[i]...)
	}
	assertRunsEqual(t, "range set and cleared", ref.got, got, ref.stats, e.Stats())
}

// FuzzListenRange is TestListenRangeMatchesFilter's property over random
// deployments, ranges and engine modes, the gate's exactness in every slot
// included: jittered lattices with duplicate points and exact lattice
// points mixed in, any float range (non-positive and NaN meaning none),
// exact or far-field, serial or pooled, with or without drops.
func FuzzListenRange(f *testing.F) {
	f.Add(int64(1), int64(64), 2.0, int64(0))
	f.Add(int64(2), int64(96), 4.5, int64(1))
	f.Add(int64(3), int64(48), 2.6, int64(2))
	f.Add(int64(4), int64(80), 3.0, int64(7))
	f.Add(int64(5), int64(32), math.Nextafter(2, 3), int64(4))
	f.Add(int64(6), int64(40), 0.0, int64(5))
	f.Add(int64(7), int64(40), math.Inf(1), int64(3))
	f.Add(int64(8), int64(40), 1e-300, int64(6))
	f.Fuzz(func(t *testing.T, seed, nRaw int64, r float64, mode int64) {
		n := int(8 + uint64(nRaw)%89)
		rng := rand.New(rand.NewSource(seed))
		spacing := 1 + 3*rng.Float64()
		pts := workload.JitteredGrid(rng, n, spacing, rng.Float64())
		for i := range pts {
			switch rng.Intn(8) {
			case 0: // onto the exact lattice
				pts[i] = geom.Point{X: math.Round(pts[i].X/spacing) * spacing, Y: math.Round(pts[i].Y/spacing) * spacing}
			case 1: // a duplicate
				pts[i] = pts[rng.Intn(n)]
			}
		}
		in := sinr.MustInstance(pts, sinr.DefaultParams())
		cfg := Config{}
		if mode&1 != 0 {
			cfg.Pool = testPool(t, 4)
		}
		if mode&2 != 0 {
			cfg.DropProb, cfg.Seed = 0.2, seed
		}
		if mode&4 != 0 {
			q, err := in.QuadTree(0.5)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Far, cfg.AdaptiveCrossover = q, 1
		}
		if ref, _, _ := checkListenRange(t, "fuzz", in, cfg, seed, 8, r); cfg.Far != nil && (ref.far == 0 || ref.exact != 0) {
			t.Fatalf("forced far engine resolved %d slots far and %d exact", ref.far, ref.exact)
		}
	})
}
