package core

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// epochRecord is what one physical epoch reports through the public API —
// Aggregate's Value, Broadcast's Reached, SendMessage's Delivered (as
// Reached 0/1), and every epoch's SlotsUsed and Energy — plus the channel's
// own delivery count, read off the engine observer, and the error text.
type epochRecord struct {
	value      int64
	reached    int
	slots      int
	deliveries int
	energy     float64
	err        error
}

func (r epochRecord) String() string {
	msg := ""
	if r.err != nil {
		msg = r.err.Error()
	}
	return fmt.Sprintf("v=%d r=%d s=%d d=%d e=%#x err=%q",
		r.value, r.reached, r.slots, r.deliveries, math.Float64bits(r.energy), msg)
}

// goldenEpochs runs the six epochs of the digest — Sum and Max
// aggregation, a broadcast, and three src/dst messages — on one tree under
// one engine config, and returns one line per epoch.
func goldenEpochs(in *sinr.Instance, bt *tree.BiTree, seed int64, ecfg sim.Config) []string {
	ctx := context.Background()
	var delivered int
	ecfg.Observer = func(ev sim.SlotEvent) { delivered += ev.Deliveries }
	run := func(f func() epochRecord) string {
		delivered = 0
		r := f()
		r.deliveries = delivered
		return r.String()
	}
	values := make([]int64, in.Len())
	for i := range values {
		values[i] = int64((i*7919+int(seed)*31)%1000) - 500
	}
	var lines []string
	for _, fold := range []func(a, b int64) int64{sumFold, maxFold} {
		lines = append(lines, run(func() epochRecord {
			out, err := RunAggregation(ctx, in, bt, values, fold, ecfg)
			r := epochRecord{err: err}
			if out != nil {
				r.value, r.slots, r.energy = out.Value, out.SlotsUsed, out.Energy
			}
			return r
		}))
	}
	lines = append(lines, run(func() epochRecord {
		out, err := RunBroadcast(ctx, in, bt, 1000+seed, ecfg)
		r := epochRecord{err: err}
		if out != nil {
			r.reached, r.slots, r.energy = out.Reached, out.SlotsUsed, out.Energy
		}
		return r
	}))
	k := len(bt.Nodes)
	for _, p := range [][2]int{{k - 1, 0}, {k / 2, k - 1}, {k / 3, k / 2}} {
		src, dst := bt.Nodes[p[0]], bt.Nodes[p[1]]
		lines = append(lines, run(func() epochRecord {
			out, err := RunPairMessage(ctx, in, bt, src, dst, int64(src*100+dst), ecfg)
			r := epochRecord{err: err}
			if out != nil {
				r.slots, r.energy = out.SlotsUsed, out.Energy
				if err == nil {
					r.reached = 1
				}
			}
			return r
		}))
	}
	return lines
}

// TestGoldenEpochDigests pins every physical epoch's outcome bit for bit:
// an FNV-64 over one line per (tree, n, seed, engine config, epoch), for
// Init, TVC-mean and TVC-arbitrary trees and an Init tree whose links are
// all forced into one slot (so ordering and collisions lose transfers),
// under a serial engine, a pooled one, two fading rates and forced far-field
// resolution. A change to how an epoch folds, forwards, powers or counts
// moves a digest.
func TestGoldenEpochDigests(t *testing.T) {
	ctx, pool := context.Background(), testPool(t, 4)
	want := map[string]uint64{
		"init":          0x5786e0f4ee23122c,
		"tvc-mean":      0xdfadece5edb8daa8,
		"tvc-arbitrary": 0xbb01c6c22b0d0bff,
		"one-slot":      0x45e5e7888009d527,
	}
	kinds := []string{"init", "tvc-mean", "tvc-arbitrary", "one-slot"}
	hashes := map[string]hash.Hash64{}
	for _, kind := range kinds {
		hashes[kind] = fnv.New64a()
	}
	for _, n := range []int{1, 2, 24, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			in := uniformInstance(t, 500+seed, n)
			ff, err := in.QuadTree(1)
			if err != nil {
				t.Fatal(err)
			}
			configs := []struct {
				name string
				cfg  sim.Config
			}{
				{"serial", sim.Config{}},
				{"pooled", sim.Config{Pool: pool}},
				{"drop0.05", sim.Config{DropProb: 0.05, Seed: seed}},
				{"drop0.3", sim.Config{DropProb: 0.3, Seed: seed + 10}},
				{"far", sim.Config{Far: ff, AdaptiveCrossover: 1}},
			}
			trees := map[string]*tree.BiTree{}
			ires, err := Init(ctx, in, InitConfig{Channel: sim.Config{Seed: seed}})
			if err != nil {
				t.Fatalf("n=%d seed=%d init: %v", n, seed, err)
			}
			trees["init"] = ires.Tree
			for kind, v := range map[string]Variant{"tvc-mean": VariantMean, "tvc-arbitrary": VariantArbitrary} {
				tres, err := TreeViaCapacity(ctx, in, TVCConfig{Variant: v, Init: InitConfig{Channel: sim.Config{Seed: seed}}})
				if err != nil {
					t.Fatalf("n=%d seed=%d %s: %v", n, seed, kind, err)
				}
				trees[kind] = tres.Tree
			}
			bad := &tree.BiTree{Root: ires.Tree.Root, Nodes: ires.Tree.Nodes,
				Up: append([]tree.TimedLink(nil), ires.Tree.Up...)}
			for i := range bad.Up {
				bad.Up[i].Slot = 1
			}
			trees["one-slot"] = bad
			for _, kind := range kinds {
				for _, c := range configs {
					for i, line := range goldenEpochs(in, trees[kind], seed, c.cfg) {
						line = fmt.Sprintf("%s n=%d seed=%d %s epoch=%d %s\n", kind, n, seed, c.name, i, line)
						if testing.Verbose() {
							t.Log(line)
						}
						hashes[kind].Write([]byte(line))
					}
				}
			}
		}
	}
	for _, kind := range kinds {
		if got := hashes[kind].Sum64(); got != want[kind] {
			t.Errorf("%s: digest %#x, want %#x", kind, got, want[kind])
		}
	}
}

// testPool returns a pool of w workers that closes when the test ends.
func testPool(t testing.TB, w int) *sim.Pool {
	p := sim.NewPool(w)
	t.Cleanup(p.Close)
	return p
}
