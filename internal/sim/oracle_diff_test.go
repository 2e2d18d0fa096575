package sim_test

// Differential test of the engine's channel resolution against
// internal/oracle: every slot of a randomized traffic pattern, every
// listener's decode decision (which sender, if any, and at what SINR) must
// match the naive O(n²) physics. This pins the whole decode fast path —
// gain-table rows, single-pass strongest-sender scan, shard counters —
// to the model definition. Type 1: one mismatch = bug.

import (
	"math"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/oracle"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// chaos is a deterministic random protocol: each node transmits with
// probability pTx (power drawn from its per-node rng) or listens, and
// records every delivery it sees.
type chaos struct {
	rng  *rand.Rand
	pTx  float64
	pMax float64
	got  [][]sim.Delivery
}

func (c *chaos) Step(slot int, inbox []sim.Delivery) sim.Action {
	cp := make([]sim.Delivery, len(inbox))
	copy(cp, inbox)
	c.got = append(c.got, cp)
	if c.rng.Float64() < c.pTx {
		return sim.Transmit(c.pMax*(0.1+0.9*c.rng.Float64()), sim.Message{Kind: sim.KindBroadcast})
	}
	return sim.Listen()
}

func TestEngineMatchesOracleResolution(t *testing.T) {
	// A pool of more workers than the CPU count, so the pooled decode path
	// runs even on single-core CI machines.
	pool := sim.NewPool(4)
	defer pool.Close()
	for _, seed := range []int64{42, 123, 456} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		pts := workload.GaussianClusters(rng, 40, 4, 3, 50)
		p := sinr.DefaultParams()
		in := sinr.MustInstance(pts, p)
		pMax := p.SafePower(10)

		// Two identical protocol sets: one stepped by the engine, one
		// replayed by hand against the oracle. Per-node rngs make the
		// traffic identical on both sides.
		mk := func() []sim.Protocol {
			procs := make([]sim.Protocol, len(pts))
			for i := range procs {
				procs[i] = &chaos{rng: rand.New(rand.NewSource(seed*1000 + int64(i))), pTx: 0.3, pMax: pMax}
			}
			return procs
		}
		procs := mk()
		shadow := mk()

		e, err := sim.NewEngine(in, procs, sim.Config{Seed: seed, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}

		const slots = 40
		// Shadow replay: drive the shadow protocols with the deliveries the
		// oracle predicts, slot by slot, and require the engine's stats and
		// inboxes to match exactly.
		shadowInbox := make([][]sim.Delivery, len(pts))
		wantDeliveries := 0
		for slot := 0; slot < slots; slot++ {
			e.Step()

			acts := make([]sim.Action, len(shadow))
			for i, pr := range shadow {
				acts[i] = pr.Step(slot, shadowInbox[i])
				shadowInbox[i] = nil
			}
			var txs []sinr.Tx
			senders := map[int]sim.Message{}
			for i, a := range acts {
				if a.Kind == sim.ActionTransmit {
					txs = append(txs, sinr.Tx{Sender: i, Power: a.Power})
					senders[i] = a.Msg
				}
			}
			for i, a := range acts {
				if a.Kind != sim.ActionListen {
					continue
				}
				k, s := oracle.ResolveSlot(pts, p, txs, i)
				if k < 0 {
					continue
				}
				tx := txs[k]
				shadowInbox[i] = append(shadowInbox[i], sim.Delivery{
					Msg:  senders[tx.Sender],
					Dist: oracle.Dist(pts, tx.Sender, i),
					SINR: s,
					Slot: slot,
				})
				wantDeliveries++
			}
		}
		// Deliveries counted so far cover exactly slots 0..slots-1 — the
		// range the shadow predicted.
		if got := e.Stats().Deliveries; got != wantDeliveries {
			t.Fatalf("seed %d: engine delivered %d, oracle predicts %d", seed, got, wantDeliveries)
		}
		// One more step on both sides flushes the final slot's deliveries
		// into the recorded inboxes.
		e.Step()
		for i, pr := range shadow {
			pr.Step(slots, shadowInbox[i])
			shadowInbox[i] = nil
		}
		for i := range procs {
			got := procs[i].(*chaos).got
			want := shadow[i].(*chaos).got
			for slot := 0; slot < slots; slot++ {
				g := got[slot+1] // engine inboxes trail transmissions by one slot
				w := want[slot+1]
				if len(g) != len(w) {
					t.Fatalf("seed %d node %d slot %d: %d deliveries, oracle predicts %d", seed, i, slot, len(g), len(w))
				}
				for k := range g {
					if g[k].Msg != w[k].Msg || g[k].Slot != w[k].Slot {
						t.Fatalf("seed %d node %d slot %d: delivery %+v, oracle predicts %+v", seed, i, slot, g[k], w[k])
					}
					if math.Abs(g[k].SINR-w[k].SINR) > 1e-9*w[k].SINR {
						t.Fatalf("seed %d node %d slot %d: SINR %v, oracle predicts %v", seed, i, slot, g[k].SINR, w[k].SINR)
					}
					if math.Abs(g[k].Dist-w[k].Dist) > 1e-9*w[k].Dist {
						t.Fatalf("seed %d node %d slot %d: Dist %v, oracle predicts %v", seed, i, slot, g[k].Dist, w[k].Dist)
					}
				}
			}
		}
	}
}

// TestEngineOracleDisagreementDetectable guards the differential itself: a
// deliberately corrupted replay (wrong β in the oracle) must disagree, so
// a silent pass cannot come from comparing nothing.
func TestEngineOracleDisagreementDetectable(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 40}}
	p := sinr.DefaultParams()
	// Sender 0 below MinPower: undecodable at β = 1.5, decodable at 0.01.
	txs := []sinr.Tx{{Sender: 0, Power: 0.9 * p.MinPower(1)}, {Sender: 3, Power: p.SafePower(1)}}
	k, _ := oracle.ResolveSlot(pts, p, txs, 1)
	loose := p
	loose.Beta = 0.01
	k2, _ := oracle.ResolveSlot(pts, loose, txs, 1)
	if k == k2 {
		t.Fatalf("β change did not alter resolution (%d vs %d)", k, k2)
	}
}
