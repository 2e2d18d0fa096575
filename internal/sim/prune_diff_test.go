package sim_test

// The decode pre-pass differential. An exact slot that files its senders
// into the pre-pass's grid and settles listeners from their nearest
// senders must decode exactly as the full sum alone: every run below goes
// once with the pre-pass forced into every exact slot (sim.PruneBy true)
// and once with it in none, and the two must agree on every result, Stats
// value, SlotEvent and inbox, bit for bit.

import (
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// noisyProto draws every slot's action from a hash of (salt, slot, id):
// idle, a transmission with probability 0.45 at one of powers, zero
// included, addressed to a nearby node or to none, or plain or addressed
// listening. It ignores its inbox, so both runs of a case step it through
// the same actions.
type noisyProto struct {
	id, n  int
	salt   int64
	powers []float64
}

func (p *noisyProto) Step(slot int, _ []sim.Delivery) sim.Action {
	c := rand.New(rand.NewSource(p.salt ^ int64(slot)<<20 ^ int64(p.id)))
	switch r := c.Float64(); {
	case r < 0.05:
		return sim.Idle()
	case r < 0.5:
		to := sim.NoAddressee
		if c.Intn(2) == 0 {
			to = (p.id + 1 + c.Intn(4)) % p.n
		}
		pw := p.powers[c.Intn(len(p.powers))]
		return sim.Transmit(pw, sim.Message{Kind: sim.KindData, From: p.id, To: to, Tag: slot})
	case r < 0.75:
		return sim.ListenAddressed()
	}
	return sim.Listen()
}

// pruneRun runs noisyProto nodes over in for slots slots on cfg, under
// listen range r (none if 0), and returns its Stats, a digest of every
// SlotEvent and inbox, how many slots ran the pre-pass and the farthest
// ring their walks could read.
func pruneRun(t *testing.T, in *sinr.Instance, cfg sim.Config, powers []float64, r float64, slots int) (sim.Stats, uint64, int, int) {
	t.Helper()
	rec := &slotRecorder{stage: "run", digests: map[string]hash.Hash64{}}
	pruned, rings := 0, 0
	cfg = sim.WatchPruned(rec.channel(cfg), func(r int) { pruned, rings = pruned+1, max(rings, r) })
	procs := make([]sim.Protocol, in.Len())
	for i := range procs {
		procs[i] = &noisyProto{id: i, n: in.Len(), salt: cfg.Seed, powers: powers}
	}
	e, err := sim.NewEngine(in, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0 {
		e.SetListenRange(r)
	}
	e.Run(slots)
	return e.Stats(), rec.sum().Sum64(), pruned, rings
}

// TestPrunedDecodeMatchesFull runs the held-action pipeline (Init,
// schedule.Distributed with its mixed-power epochs, a muted Join and a
// churn trace) over the scenario matrix at α ∈ {2, 2.5, 3, 4} and seeds
// 42, 123 and 456, serial, on a pool that fans every stage out, and on a
// far-field engine whose slots all stay exact (no gain table), once with
// the pre-pass in every exact slot and once in none. Then it runs
// random actions over adversarial instances: duplicate points, whose
// twins saturate listeners; lattices, where senders sit equidistant from
// a listener and tie, and at exactly the listen range or just inside it;
// zero and mixed powers; addressed listeners; and a chain with Δ = 2⁴⁰,
// whose senders crowd one cell, so the grid must fall back.
func TestPrunedDecodeMatchesFull(t *testing.T) {
	pool := sim.NewPool(4)
	defer pool.Close()
	n := 40
	if testing.Short() {
		n = 24
	}
	// The far engine keeps every slot exact, so its slots decode with gains
	// computed on the fly and no gain table, pre-pass or not.
	engines := func(in *sinr.Instance, seed int64) map[string]sim.Config {
		q, err := in.QuadTree(holdEps)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]sim.Config{
			"serial":    {Seed: seed},
			"pool_drop": sim.FanEveryStage(sim.Config{Seed: seed, Pool: pool, DropProb: 0.1}),
			"far_exact": {Seed: seed, Far: q, AdaptiveCrossover: 1 << 30},
		}
	}
	for _, spec := range workload.Matrix() {
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			p := sinr.DefaultParams()
			p.Alpha = alpha
			for _, seed := range []int64{42, 123, 456} {
				in := sinr.MustInstance(spec.Gen(rand.New(rand.NewSource(seed)), n), p)
				for name, ch := range engines(in, seed) {
					label := fmt.Sprintf("%s/alpha=%v/seed=%d/%s", spec.Name, alpha, seed, name)
					on := &slotRecorder{digests: map[string]hash.Hash64{}}
					off := &slotRecorder{digests: map[string]hash.Hash64{}}
					pruned := 0
					got := holdPipeline(t, in, sim.WatchPruned(on.channel(sim.PruneBy(ch, true)), func(int) { pruned++ }), on)
					want := holdPipeline(t, in, off.channel(sim.PruneBy(ch, false)), off)
					if pruned == 0 {
						t.Fatalf("%s: no slot ran the pre-pass", label)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d result lines pruned, %d full", label, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%s: result diverged\npruned: %s\nfull:   %s", label, got[k], want[k])
						}
					}
					if len(on.digests) < 3 || len(on.digests) != len(off.digests) {
						t.Fatalf("%s: %d stages recorded slots pruned, %d full", label, len(on.digests), len(off.digests))
					}
					for stage, h := range on.digests {
						if o := off.digests[stage]; o == nil || h.Sum64() != o.Sum64() {
							t.Fatalf("%s: stage %s: slot events or inboxes diverged", label, stage)
						}
					}
				}
			}
		}
	}

	// The instances are large enough that the walks reach ring 2 and 3.
	dups := workload.JitteredGrid(rand.New(rand.NewSource(5)), 480, 2.6, 0.8)
	for i := 0; i < 480; i += 5 {
		dups = append(dups, dups[i])
	}
	// A 30×30 lattice of spacing 2: a listener's four nearest senders sit
	// at exactly 2, the next four at exactly Hypot(2, 2). The ranges keep
	// the first four just inside r, and cut the next four at exactly r.
	var lattice []geom.Point
	for j := 0; j < 30; j++ {
		for i := 0; i < 30; i++ {
			lattice = append(lattice, geom.Point{X: float64(2 * i), Y: float64(2 * j)})
		}
	}
	var chain []geom.Point
	for k := 0; k <= 40; k++ {
		x := math.Ldexp(1, k)
		chain = append(chain, geom.Point{X: x}, geom.Point{X: x + 1, Y: 0.5})
	}
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		ranges []float64
		rings  int // the farthest ring some walk reads; 0 if the grid must fall back
	}{
		{name: "duplicates", pts: dups, ranges: []float64{0, 3}, rings: 2},
		{name: "lattice", pts: lattice, ranges: []float64{0, math.Nextafter(2, 3), math.Hypot(2, 2), 4}, rings: 3},
		{name: "chain-2^40", pts: chain, ranges: []float64{0, 2}},
	} {
		var total sim.Stats
		rings := 0
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			p := sinr.DefaultParams()
			p.Alpha = alpha
			in := sinr.MustInstance(c.pts, p)
			pw := p.SafePower(4)
			// Equal powers tie; zero is inaudible; 3·pw outshouts.
			powers := []float64{pw, pw, 0, 3 * pw}
			for _, r := range c.ranges {
				for name, cfg := range engines(in, 7) {
					label := fmt.Sprintf("%s/alpha=%v/r=%v/%s", c.name, alpha, r, name)
					onStats, onSum, pruned, reach := pruneRun(t, in, sim.PruneBy(cfg, true), powers, r, 8)
					offStats, offSum, _, _ := pruneRun(t, in, sim.PruneBy(cfg, false), powers, r, 8)
					rings = max(rings, reach)
					if onStats != offStats {
						t.Fatalf("%s: Stats %+v pruned, %+v full", label, onStats, offStats)
					}
					if onSum != offSum {
						t.Fatalf("%s: slot events or inboxes diverged", label)
					}
					total.Deliveries += onStats.Deliveries
					total.Collisions += onStats.Collisions
					if (c.rings == 0) != (pruned == 0) {
						t.Fatalf("%s: %d slots ran the pre-pass", label, pruned)
					}
				}
			}
		}
		if total.Deliveries == 0 || total.Collisions == 0 {
			t.Fatalf("%s: workload too tame: %+v", c.name, total)
		}
		if rings != c.rings {
			t.Fatalf("%s: the walks read out to ring %d, want %d", c.name, rings, c.rings)
		}
	}
}
