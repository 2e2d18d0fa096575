package sim

import (
	"fmt"
	"math"
	"math/rand"
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
// decoded, and whether the sender cell index could be used.
type rangeRun struct {
	got     [][]Delivery
	stats   Stats
	decoded int
	cellsOK bool
}

// runRanged runs chatterProto nodes over in for slots slots under listen
// range r with the listener gate forced on (gate) or off, or with no range
// at all when r is 0.
func runRanged(t *testing.T, in *sinr.Instance, cfg Config, salt int64, slots int, r float64, gate bool) rangeRun {
	t.Helper()
	defer func(old int) { listenGateMinWork = old }(listenGateMinWork)
	listenGateMinWork = math.MaxInt
	if gate {
		listenGateMinWork = 0
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
	defer e.Close()
	if r != 0 {
		e.SetListenRange(r)
	}
	var run rangeRun
	for s := 0; s < slots; s++ {
		e.Step()
		run.decoded += len(e.lis)
	}
	run.got = make([][]Delivery, n)
	for i, rec := range recs {
		// The last slot's deliveries are still in the engine's inboxes.
		run.got[i] = append(rec.got, e.inboxes[i]...)
	}
	run.stats = e.Stats()
	run.cellsOK = e.cells.ok
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
// depend on whether the listener gate ran. It covers the gain table,
// on-the-fly exact decode, batched and per-listener far-field decode,
// serial and pooled engines and drops, over a jittered grid, a lattice
// whose points sit on cell boundaries with senders at exactly r and at
// math.Nextafter(r, 0), duplicate points, and a chain with Δ = 2⁴⁰ whose
// cell coordinates overflow, so the engine falls back to decoding every
// listener.
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

	exactCfgs := []Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 1, DropProb: 0.2, Seed: 3},
		{Workers: 4, DropProb: 0.2, Seed: 3},
	}
	farCfgs := func(q *sinr.QuadTree) []Config {
		return []Config{
			{Workers: 1, FarField: q, Adaptive: true, AdaptiveCrossover: 1 << 30}, // exact, on the fly
			{Workers: 4, FarField: q, Adaptive: true, AdaptiveCrossover: 1 << 30, DropProb: 0.2, Seed: 3},
			{Workers: 1, FarField: q},
			{Workers: 4, FarField: q, DropProb: 0.2, Seed: 3},
			{Workers: 1, FarField: q, NoFarBatch: true},
			{Workers: 4, FarField: q, NoFarBatch: true},
			{Workers: 4, FarField: q, Adaptive: true, AdaptiveCrossover: 40},
		}
	}
	cases := []struct {
		name string
		in   *sinr.Instance
		cfgs []Config
		rs   []float64
		// fallback: the instance spans too many cells for the index.
		fallback bool
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
		{name: "chain-2^40", in: chain, cfgs: exactCfgs, rs: []float64{2}, fallback: true},
	}
	for _, c := range cases {
		for _, r := range c.rs {
			for ci, cfg := range c.cfgs {
				label := fmt.Sprintf("%s r=%v cfg %d (workers=%d far=%v batch=%v drop=%v)",
					c.name, r, ci, cfg.Workers, cfg.FarField != nil, !cfg.NoFarBatch, cfg.DropProb)
				ref, gated, cut := checkListenRange(t, label, c.in, cfg, 11, slots, r)
				if cut == 0 || gated.stats.Deliveries == 0 {
					t.Fatalf("%s: the range cut %d and kept %d deliveries; want both", label, cut, gated.stats.Deliveries)
				}
				if gated.cellsOK == c.fallback {
					t.Fatalf("%s: cell index usable = %v", label, gated.cellsOK)
				}
				if c.fallback != (gated.decoded == ref.decoded) {
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

// TestListenRangeOff pins the ways to set no range: 0, a negative range
// and NaN all leave the engine unranged, and a range set and then cleared
// behaves like none.
func TestListenRangeOff(t *testing.T) {
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(3)), 64, 2.6, 0.8), sinr.DefaultParams())
	for _, r := range []float64{0, -1, math.NaN()} {
		checkListenRange(t, fmt.Sprintf("r=%v", r), in, Config{Workers: 1}, 5, 8, r)
	}
	ref := runRanged(t, in, Config{Workers: 1}, 5, 8, 0, false)
	procs := make([]Protocol, in.Len())
	recs := make([]*recordProto, in.Len())
	for i := range procs {
		recs[i] = &recordProto{inner: &chatterProto{id: i, salt: 5, power: in.Params().SafePower(4)}}
		procs[i] = recs[i]
	}
	e := mustEngine(t, in, procs, Config{Workers: 1})
	defer e.Close()
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
// deployments, ranges and engine modes: jittered lattices with duplicate
// points and exact lattice points mixed in, any float range (non-positive
// and NaN meaning none), exact or far-field, serial or pooled, with or
// without drops.
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
		cfg := Config{Workers: 1}
		if mode&1 != 0 {
			cfg.Workers = 4
		}
		if mode&2 != 0 {
			cfg.DropProb, cfg.Seed = 0.2, seed
		}
		if mode&4 != 0 {
			q, err := in.QuadTree(0.5)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FarField = q
			cfg.NoFarBatch = mode&8 != 0
		}
		checkListenRange(t, "fuzz", in, cfg, seed, 8, r)
	})
}
