package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// addrProto acts from hashes of (salt, slot, id) and ignores its inbox, so
// engines that differ only in how they listen step it through the same
// actions. A sender addresses no node, a node past the last index, a node
// at random or, most often, a node nearby, so that some addressees hear
// it. A listener listens addressed in the slots addressedAt picks, unless
// plain is set, when it always listens plainly: the reference engine.
type addrProto struct {
	id, n int
	salt  int64
	power float64
	near  []int // nodes within a few lattice spacings, never empty
	plain bool
}

func (p *addrProto) Step(slot int, _ []Delivery) Action {
	switch c := dropCoin(p.salt, slot, p.id); {
	case c < 0.25:
		to := NoAddressee
		switch d := dropCoin(p.salt+1, slot, p.id); {
		case d < 0.1:
			to = p.n + int(d*100)
		case d < 0.25:
			to = int(d*1e6) % p.n
		case d >= 0.4:
			to = p.near[int(d*1e6)%len(p.near)]
		}
		return Transmit(p.power, Message{Kind: KindData, From: p.id, To: to, Tag: slot})
	case c < 0.9:
		if !p.plain && addressedAt(p.salt, slot, p.id) {
			return ListenAddressed()
		}
		return Listen()
	}
	return Idle()
}

// addressedAt reports whether node id, if it listens in slot, listens
// addressed.
func addressedAt(salt int64, slot, id int) bool {
	return dropCoin(salt+2, slot, id) < 0.6
}

// addrRun is one engine run of the addressed-listening differential:
// every delivery each node received, the stats, how many listener-slots
// were decoded and how many slots with a sender resolved far and exact.
type addrRun struct {
	got        [][]Delivery
	stats      Stats
	decoded    int
	far, exact int
}

// runAddressed runs addrProto nodes over in for slots slots under listen
// range r (none if r is 0): plainly listening nodes when plain is set,
// otherwise a mix of plain and addressed listeners with the address gate
// on (gate), when it must keep exactly the listeners checkGateSlot finds
// in every slot, or off. Pooled configs fan every stage out.
func runAddressed(t *testing.T, in *sinr.Instance, cfg Config, salt int64, slots int, r float64, plain, gate bool) addrRun {
	t.Helper()
	cfg.noAddrGate = !gate
	if cfg.Workers > 1 {
		cfg.forceFan = fanAlways
	}
	n := in.Len()
	power := in.Params().SafePower(4)
	procs := make([]Protocol, n)
	recs := make([]*recordProto, n)
	for i := range procs {
		var near []int
		for j := 0; j < n; j++ {
			if j != i && in.Dist(i, j) < 6 {
				near = append(near, j)
			}
		}
		if near == nil {
			near = []int{(i + 1) % n}
		}
		recs[i] = &recordProto{inner: &addrProto{id: i, n: n, salt: salt, power: power, near: near, plain: plain}}
		procs[i] = recs[i]
	}
	e := mustEngine(t, in, procs, cfg)
	defer e.Close()
	e.SetListenRange(r)
	var run addrRun
	for s := 0; s < slots; s++ {
		e.Step()
		if gate {
			checkGateSlot(t, "runAddressed", e)
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
	return run
}

// keepAddressed is the reference filter: the deliveries addressed
// listening keeps, dropping each one that reached a node listening
// addressed in its slot but is addressed elsewhere. It also counts the
// deliveries kept at addressed listeners.
func keepAddressed(got [][]Delivery, salt int64) (kept [][]Delivery, n, addressed, cut int) {
	kept = make([][]Delivery, len(got))
	for i, ds := range got {
		for _, d := range ds {
			if addressedAt(salt, d.Slot, i) {
				if d.Msg.To != i {
					cut++
					continue
				}
				addressed++
			}
			kept[i] = append(kept[i], d)
			n++
		}
	}
	return kept, n, addressed, cut
}

// TestAddressedListenMatchesFilter pins ListenAddressed against its
// definition: an engine whose nodes mix plain and addressed listening
// fills every inbox, bit for bit, as an engine whose nodes all listen
// plainly, with each delivery that an addressed listener's slot brought
// but that is addressed to another node removed afterwards. Its counters
// do not depend on whether the address gate ran, and in every slot the
// gates keep exactly the listeners a brute-force scan keeps. Senders
// broadcast, address nodes nearby, at random and past the last index. It
// covers the gain table, on-the-fly exact decode, far-field decode, serial
// and pooled engines and drops, with and without a listen range, over a
// jittered grid and one with duplicate points, whose co-located senders
// drown the channel.
func TestAddressedListenMatchesFilter(t *testing.T) {
	const slots, salt = 16, 23
	grid := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(41)), 192, 2.6, 0.8), sinr.DefaultParams())
	dupPts := workload.JitteredGrid(rand.New(rand.NewSource(43)), 96, 2.6, 0.8)
	for i := 0; i < 96; i += 4 {
		dupPts = append(dupPts, dupPts[i])
	}
	dups := sinr.MustInstance(dupPts, sinr.DefaultParams())
	cfgs := func(in *sinr.Instance) []Config {
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return []Config{
			{Workers: 1},
			{Workers: 4},
			{Workers: 1, DropProb: 0.2, Seed: 3},
			{Workers: 4, DropProb: 0.2, Seed: 3},
			{Workers: 1, Far: q, AdaptiveCrossover: 1 << 30}, // exact, on the fly
			{Workers: 4, Far: q, AdaptiveCrossover: 1 << 30, DropProb: 0.2, Seed: 3},
			{Workers: 1, Far: q, AdaptiveCrossover: 1}, // every slot far
			{Workers: 4, Far: q, AdaptiveCrossover: 1, DropProb: 0.2, Seed: 3},
		}
	}
	for _, c := range []struct {
		name string
		in   *sinr.Instance
	}{{"grid", grid}, {"duplicates", dups}} {
		for _, r := range []float64{0, 3} {
			for ci, cfg := range cfgs(c.in) {
				label := fmt.Sprintf("%s r=%v cfg %d (workers=%d far=%v crossover=%d drop=%v)",
					c.name, r, ci, cfg.Workers, cfg.Far != nil, cfg.AdaptiveCrossover, cfg.DropProb)
				ref := runAddressed(t, c.in, cfg, salt, slots, r, true, false)
				want, kept, addressed, cut := keepAddressed(ref.got, salt)
				gated := runAddressed(t, c.in, cfg, salt, slots, r, false, true)
				ungated := runAddressed(t, c.in, cfg, salt, slots, r, false, false)
				assertRunsEqual(t, label+": gate on vs off", gated.got, ungated.got, gated.stats, ungated.stats)
				for i := range want {
					if len(want[i]) != len(gated.got[i]) {
						t.Fatalf("%s: node %d: %d deliveries kept by the filter, %d by the engine", label, i, len(want[i]), len(gated.got[i]))
					}
					for k := range want[i] {
						if want[i][k] != gated.got[i][k] {
							t.Fatalf("%s: node %d delivery %d: %+v vs %+v", label, i, k, want[i][k], gated.got[i][k])
						}
					}
				}
				if gated.stats.Deliveries != kept {
					t.Fatalf("%s: the engine counts %d deliveries, the filter keeps %d", label, gated.stats.Deliveries, kept)
				}
				if s, w := gated.stats, ref.stats; s.Slots != w.Slots || s.Transmissions != w.Transmissions || s.Energy != w.Energy {
					t.Fatalf("%s: addressed stats %+v vs plain %+v", label, s, w)
				}
				if cut == 0 || addressed == 0 {
					t.Fatalf("%s: the filter cut %d deliveries and kept %d at addressed listeners; want both", label, cut, addressed)
				}
				if cfg.AdaptiveCrossover == 1 && (gated.far == 0 || gated.exact != 0) {
					t.Fatalf("%s: forced far engine resolved %d slots far and %d exact", label, gated.far, gated.exact)
				}
				if ungated.decoded != ref.decoded || gated.decoded >= ungated.decoded {
					t.Fatalf("%s: decoded listener-slots %d plain, %d ungated, %d gated", label, ref.decoded, ungated.decoded, gated.decoded)
				}
			}
		}
	}
}
