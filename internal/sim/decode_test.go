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

// chaosProto draws a fresh action every slot from its own seeded stream:
// idle, listen, or transmit at one of a few powers — zero included, so a
// listener can hear nothing audible, and few enough that co-located twins
// (decodeGateInstance) often pick the same one and tie. It logs its own
// actions and inboxes for the replay.
type chaosProto struct {
	id      int
	rng     *rand.Rand
	powers  []float64
	txProb  float64
	actions []Action
	got     []Delivery
}

func (p *chaosProto) Step(slot int, inbox []Delivery) Action {
	p.got = append(p.got, inbox...)
	var a Action
	switch r := p.rng.Float64(); {
	case r < 0.05:
		a = Idle()
	case r < 0.05+p.txProb:
		pw := p.powers[p.rng.Intn(len(p.powers))]
		a = Transmit(pw, Message{Kind: KindBroadcast, From: p.id, To: NoAddressee, Tag: slot})
	default:
		a = Listen()
	}
	p.actions = append(p.actions, a)
	return a
}

// listenerMajorSlot is the reference the sender-major exact decode must
// reproduce bit for bit: the listener-major loop it replaced, transcribed.
// Each listener scans the sender set once, in txs order, through its own
// gain row (or on-the-fly path loss when the table is off), accumulating
// the total received power and keeping the first strictly strongest
// sender; a co-located sender saturates the listener. The tail is the
// engine's β cut, drop coin and delivery record. It adds the slot to st
// and returns the slot's deliveries per node, and how many of them were
// won against a sender of exactly equal received power.
func listenerMajorSlot(in *sinr.Instance, table bool, cfg Config, slot int, acts []Action, st *Stats) (out [][]Delivery, ties int) {
	n := in.Len()
	p := in.Params()
	var txs []sinr.Tx
	for i := range acts {
		if acts[i].Kind == ActionTransmit {
			txs = append(txs, sinr.Tx{Sender: i, Power: acts[i].Power})
			st.Energy += acts[i].Power
		}
	}
	st.Slots++
	st.Transmissions += len(txs)
	out = make([][]Delivery, n)
	if len(txs) == 0 {
		return out, 0
	}
	gains, stride := in.GainTableStride()
	for i := range acts {
		if acts[i].Kind != ActionListen {
			continue
		}
		var total, bestRP float64
		best := -1
		saturated, tied := false, false
		for k, t := range txs {
			var g float64
			if table {
				g = gains[i*stride+t.Sender]
			} else {
				g = 1 / sinr.PowAlphaSq(in.DistSq(t.Sender, i), p.Alpha)
			}
			if math.IsInf(g, 1) {
				saturated = true
				break
			}
			rp := t.Power * g
			total += rp
			if rp > bestRP {
				bestRP = rp
				best = k
				tied = false
			} else if rp == bestRP && rp > 0 {
				tied = true
			}
		}
		switch {
		case saturated:
			st.Collisions++
			continue
		case best < 0:
			continue
		}
		sinrVal := bestRP / (p.Noise + (total - bestRP))
		if sinrVal < p.Beta {
			st.Collisions++
			continue
		}
		if cfg.DropProb > 0 && dropCoin(cfg.Seed, slot, i) < cfg.DropProb {
			st.Dropped++
			continue
		}
		st.Deliveries++
		if tied {
			ties++
		}
		tx := txs[best]
		out[i] = append(out[i], Delivery{
			Msg:  acts[tx.Sender].Msg,
			Dist: in.Dist(tx.Sender, i),
			SINR: sinrVal,
			Slot: slot,
		})
	}
	return out, ties
}

// growGainTable rebuilds in from its first n−8 points through two Extends,
// so its gain table has spare rows and columns (row stride above n).
func growGainTable(t *testing.T, in *sinr.Instance) *sinr.Instance {
	t.Helper()
	pts, n := in.Points(), in.Len()
	out := sinr.MustInstance(pts[:n-8:n-8], in.Params())
	out.GainTableStride()
	for _, extra := range [][]geom.Point{pts[n-8 : n-3], pts[n-3:]} {
		var err error
		if out, err = out.Extend(extra); err != nil {
			t.Fatal(err)
		}
	}
	if _, stride := out.GainTableStride(); stride <= n {
		t.Fatalf("grown table has stride %d for %d nodes, want spare space", stride, n)
	}
	return out
}

// decodeGateInstance is a jittered grid with a few exact duplicates (node
// i+1 placed on node i for every 37th i): a listener on a transmitting
// twin saturates, and twins transmitting at one power reach every other
// listener with exactly equal received power.
func decodeGateInstance(n int, alpha, beta float64) *sinr.Instance {
	pts := workload.JitteredGrid(rand.New(rand.NewSource(23)), n, 2.6, 0.8)
	for i := 0; i+1 < n; i += 37 {
		pts[i+1] = pts[i]
	}
	p := sinr.DefaultParams()
	p.Alpha = alpha
	p.Beta = beta
	return sinr.MustInstance(pts, p)
}

// TestExactDecodeMatchesListenerMajor is the drift gate of the sender-major
// exact decode: Stats and every slot's deliveries, message for message and
// bit for bit in Dist and SINR, equal the listener-major reference
// replayed over the same actions — gain table and on-the-fly path loss,
// serial and pooled, with nil protocols, drop injection, co-located nodes
// and zero-power senders. Ties only decide a delivery under β < 1 (under
// β ≥ 1 a tied winner's SINR is below 1), so one case lowers β and must
// see tied winners delivered. Every case runs at α ∈ {2, 2.5, 3, 4}: the
// on-the-fly cases then cross each specialized path-loss arm, and the
// generic fallback, against the reference's generic PowAlphaSq.
func TestExactDecodeMatchesListenerMajor(t *testing.T) {
	const n, slots = 300, 24
	never := func(int, int) bool { return false }
	for _, tc := range []struct {
		name   string
		cfg    Config
		far    bool // decode exact slots on the fly, without the table
		grown  bool // decode from a table Extend grew, read at its own stride
		beta   float64
		txProb float64
		sparse bool
	}{
		{name: "table_serial", cfg: Config{}, txProb: 0.1},
		{name: "table_pool_drop", cfg: Config{Pool: testPool(t, 4), DropProb: 0.2, Seed: 9}, txProb: 0.1},
		{name: "table_dense_sparse", cfg: Config{Pool: testPool(t, 3)}, txProb: 0.4, sparse: true},
		{name: "table_ties", cfg: Config{Pool: testPool(t, 2)}, beta: 0.5, txProb: 0.45},
		{name: "table_grown", cfg: Config{Pool: testPool(t, 2)}, grown: true, txProb: 0.2},
		{name: "onthefly_serial", cfg: Config{}, far: true, txProb: 0.1},
		{name: "onthefly_pool_sparse", cfg: Config{Pool: testPool(t, 4), DropProb: 0.1, Seed: 4}, far: true, txProb: 0.25, sparse: true},
		{name: "onthefly_ties", cfg: Config{}, far: true, beta: 0.5, txProb: 0.45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, alpha := range []float64{2, 2.5, 3, 4} {
				t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
					beta := tc.beta
					if beta == 0 {
						beta = sinr.DefaultParams().Beta
					} else if alpha < 3 {
						// Interference decays more slowly at small α: a tied
						// winner needs a lower β to be delivered at all.
						beta /= 4
					}
					in := decodeGateInstance(n, alpha, beta)
					if tc.grown {
						in = growGainTable(t, in)
					}
					cfg := tc.cfg
					if cfg.Pool != nil {
						// The pool rows fan every stage out, below the floors.
						cfg.forceFan = fanAlways
					}
					if tc.far {
						q, err := in.QuadTree(0.5)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Far, cfg.forceFar = q, never
					}
					power := in.Params().SafePower(4)
					procs := make([]Protocol, n)
					chaos := make([]*chaosProto, n)
					for i := range procs {
						if tc.sparse && i%3 == 1 {
							continue
						}
						chaos[i] = &chaosProto{
							id:     i,
							rng:    rand.New(rand.NewSource(int64(1000 + i))),
							powers: []float64{power, power, 2 * power, 0},
							txProb: tc.txProb,
						}
						procs[i] = chaos[i]
					}
					e := mustEngine(t, in, procs, cfg)
					// The protocols see slot s's deliveries in slot s+1, so the
					// inboxes cover slots [0, slots) and Stats all slots+1.
					e.Run(slots + 1)
					acts := make([]Action, n)
					want := make([][]Delivery, n)
					var st Stats
					var ties int
					for s := 0; s <= slots; s++ {
						for i := range acts {
							acts[i] = Idle()
							if chaos[i] != nil {
								acts[i] = chaos[i].actions[s]
							}
						}
						out, tied := listenerMajorSlot(in, !tc.far, cfg, s, acts, &st)
						ties += tied
						if s < slots {
							for i, d := range out {
								want[i] = append(want[i], d...)
							}
						}
					}
					if st.Deliveries == 0 || st.Collisions == 0 {
						t.Fatalf("gate workload too tame: %+v", st)
					}
					if tc.beta != 0 && ties == 0 {
						t.Fatal("no tied winner was delivered")
					}
					if got := e.Stats(); got != st {
						t.Fatalf("engine Stats %+v, reference %+v", got, st)
					}
					for i, c := range chaos {
						if c == nil {
							continue
						}
						if len(c.got) != len(want[i]) {
							t.Fatalf("node %d: engine delivered %d, reference %d", i, len(c.got), len(want[i]))
						}
						for k := range c.got {
							if c.got[k] != want[i][k] {
								t.Fatalf("node %d delivery %d: engine %+v reference %+v", i, k, c.got[k], want[i][k])
							}
						}
					}
				})
			}
		})
	}
}

// BenchmarkExactSlot times one exact slot at the shapes of the benchmark's
// exact workloads (cmd/bench): a JitteredGrid(2.6, 0.8) deployment where
// one node in `every` transmits and the rest listen. n = 4096 with ~100
// senders is init-exact-4k's dense slot, decoded from the 128 MiB gain
// table; n = 1024 with ~13 senders is tvc-exact-1k's; n = 16384 on a
// quadtree plan with ~400 senders is an adaptive exact slot of
// init-far-16k, which computes path loss on the fly.
func BenchmarkExactSlot(b *testing.B) {
	for _, tc := range []struct {
		n, every int
		far      bool
	}{
		{1024, 80, false},
		{4096, 40, false},
		{4096, 4, false},
		{16384, 40, true},
	} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("n=%d/senders=%d/workers=%d", tc.n, tc.n/tc.every, workers)
			if tc.far {
				name += "/onthefly"
			}
			b.Run(name, func(b *testing.B) {
				pts := workload.JitteredGrid(rand.New(rand.NewSource(1)), tc.n, 2.6, 0.8)
				in := sinr.MustInstance(pts, sinr.DefaultParams())
				power := in.Params().SafePower(4)
				procs := make([]Protocol, tc.n)
				for i := range procs {
					procs[i] = &fixedProto{id: i, transmit: i%tc.every == 0, power: power}
				}
				cfg := Config{Pool: testPool(b, workers)}
				if tc.far {
					q, err := in.QuadTree(1.0)
					if err != nil {
						b.Fatal(err)
					}
					cfg.Far = q
				}
				e, err := NewEngine(in, procs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Run(3)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}

// BenchmarkFarSlot times one far slot at init-far-16k's shape: n = 16384
// on a JitteredGrid(2.6, 0.8), an ε = 1 quadtree plan, and 2521
// senders (two in every 13 nodes, so gaps of 6 and 7) — past the default
// crossover, so the slot accumulates the pyramid and walks it once at
// every listener.
func BenchmarkFarSlot(b *testing.B) {
	const n = 16384
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
			pts := workload.JitteredGrid(rand.New(rand.NewSource(1)), n, 2.6, 0.8)
			in := sinr.MustInstance(pts, sinr.DefaultParams())
			power := in.Params().SafePower(4)
			procs := make([]Protocol, n)
			for i := range procs {
				procs[i] = &fixedProto{id: i, transmit: i%13 == 0 || i%13 == 6, power: power}
			}
			q, err := in.QuadTree(1.0)
			if err != nil {
				b.Fatal(err)
			}
			far := true
			cfg := Config{Pool: testPool(b, workers), Far: q, Observer: func(ev SlotEvent) { far = far && ev.Far }}
			e, err := NewEngine(in, procs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Run(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			if !far {
				b.Fatal("a measured slot decoded exactly; the benchmark must time far slots")
			}
		})
	}
}
