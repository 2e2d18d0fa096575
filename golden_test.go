package sinrconn_test

// Golden digests of constructed trees. Every construction is a seeded,
// deterministic protocol run, so a change to the engine or the protocols
// that claims to leave behaviour unchanged (a speed-up, a refactor) must
// leave these digests as they are. Each digest is FNV-64a over the tree's
// root, its scheduled links (endpoints, slot, power bits) and the slots the
// construction consumed; the churn digest also covers the trace's stats.

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sinrconn"
	"sinrconn/internal/workload"
)

// goldenPoints is the golden deployment: a jittered grid at the bench
// density.
func goldenPoints(n int) []sinrconn.Point {
	g := workload.JitteredGrid(rand.New(rand.NewSource(1)), n, 2.6, 0.8)
	pts := make([]sinrconn.Point, len(g))
	for i, p := range g {
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts
}

type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

// tree folds a result's root, scheduled links and slot count.
func (d digest) tree(r *sinrconn.Result) {
	d.int(r.Tree.Root)
	d.int(len(r.Tree.Up))
	for _, l := range r.Tree.Up {
		d.int(l.Link.From)
		d.int(l.Link.To)
		d.int(l.Slot)
		d.float(l.Power)
	}
	d.int(r.Metrics.SlotsUsed)
}

// TestGoldenDigests pins every pipeline's tree and a churn trace's final
// tree and stats at n = 256.
func TestGoldenDigests(t *testing.T) {
	ctx := context.Background()
	nw, err := sinrconn.Open(goldenPoints(256))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	want := map[sinrconn.Pipeline]uint64{
		sinrconn.PipelineInit:           0x46776de3b63e2220,
		sinrconn.PipelineRescheduleMean: 0x948f73ebf324c26e,
		sinrconn.PipelineTVCMean:        0x0d178babb6706fc9,
		sinrconn.PipelineTVCArbitrary:   0xdbdcba46453688c4,
	}
	for _, p := range sinrconn.Pipelines() {
		r, err := nw.Run(ctx, p, sinrconn.WithSeed(7))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		d := newDigest()
		d.tree(r)
		if got := d.h.Sum64(); got != want[p] {
			t.Errorf("%v: digest %#x, want %#x", p, got, want[p])
		}
	}

	// Under reception drops: the drop rate travels through every layer a
	// construction's channel config passes (Init's engines, the TVC
	// iterations, and the Section 7 scheduler, which runs drop-free).
	wantDrop := map[sinrconn.Pipeline]uint64{
		sinrconn.PipelineInit:           0xad560812c2f67dd0,
		sinrconn.PipelineRescheduleMean: 0x55918b1632fa5877,
		sinrconn.PipelineTVCArbitrary:   0x670efd50e3b45043,
	}
	for _, p := range []sinrconn.Pipeline{sinrconn.PipelineInit, sinrconn.PipelineRescheduleMean, sinrconn.PipelineTVCArbitrary} {
		r, err := nw.Run(ctx, p, sinrconn.WithSeed(7), sinrconn.WithDropProb(0.1))
		if err != nil {
			t.Fatalf("%v drop 0.1: %v", p, err)
		}
		d := newDigest()
		d.tree(r)
		if got := d.h.Sum64(); got != wantDrop[p] {
			t.Errorf("%v drop 0.1: digest %#x, want %#x", p, got, wantDrop[p])
		}
	}

	// Cold order: RescheduleMean first on a fresh handle computes the
	// Init it reschedules itself, where the loops above find it memoized.
	// Both orders must give the same digest.
	for _, tc := range []struct {
		name string
		opts []sinrconn.RunOption
		want uint64
	}{
		{"plain", []sinrconn.RunOption{sinrconn.WithSeed(7)}, want[sinrconn.PipelineRescheduleMean]},
		{"drop 0.1", []sinrconn.RunOption{sinrconn.WithSeed(7), sinrconn.WithDropProb(0.1)}, wantDrop[sinrconn.PipelineRescheduleMean]},
	} {
		cold, err := sinrconn.Open(goldenPoints(256))
		if err != nil {
			t.Fatal(err)
		}
		r, err := cold.Run(ctx, sinrconn.PipelineRescheduleMean, tc.opts...)
		cold.Close()
		if err != nil {
			t.Fatalf("cold reschedule-mean %s: %v", tc.name, err)
		}
		d := newDigest()
		d.tree(r)
		if got := d.h.Sum64(); got != tc.want {
			t.Errorf("cold reschedule-mean %s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}

	rep, err := nw.Churn(ctx, sinrconn.TraceSpec{
		Seed:       7,
		Events:     32,
		JoinRate:   1,
		FailRate:   1.2,
		BurstRate:  0.25,
		ShowerRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Joins == 0 || s.IncrementalRepairs == 0 {
		t.Fatalf("churn trace exercised no join or no incremental repair: %+v", s)
	}
	d := newDigest()
	d.tree(rep.Final)
	for _, v := range []int{
		s.Events, s.Joins, s.Fails, s.Bursts, s.Showers, s.Moves,
		s.NodesFailed, s.NodesMoved, s.IncrementalRepairs, s.Restamps,
		s.Rebuilds, s.Retries, s.DampedJoins, s.MutedPeak, s.Compactions,
		s.SlotsUsed, s.PeakScheduleLength,
	} {
		d.int(v)
	}
	const wantChurn = 0x8c746e8d637a94be
	if got := d.h.Sum64(); got != wantChurn {
		t.Errorf("churn: digest %#x, want %#x", got, uint64(wantChurn))
	}
}

// TestGoldenFarDigests pins far-field constructions end to end: a session
// whose slots split between the quadtree walk and exact decode with
// on-the-fly path loss. The digests also cover how many slots took each
// mode, so a change that moves a slot between modes is caught even if the
// tree survives it.
func TestGoldenFarDigests(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name       string
		n          int
		opts       []sinrconn.Option
		want       uint64
		far, exact int // non-empty slots the construction took in each mode
	}{
		{"auto-4096", 4096, []sinrconn.Option{sinrconn.WithMaxRelError(1.0)}, 0x9dffd139a710f807, 24, 473},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw, err := sinrconn.Open(goldenPoints(c.n), c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			var far, exact int
			obs := sinrconn.WithObserver(func(e sinrconn.SlotEvent) {
				if e.Far {
					far++
				} else if e.Senders > 0 {
					exact++
				}
			})
			r, err := nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(7), obs)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			d.tree(r)
			d.int(far)
			d.int(exact)
			if far != c.far || exact != c.exact {
				t.Errorf("far/exact slots %d/%d, want %d/%d", far, exact, c.far, c.exact)
			}
			if got := d.h.Sum64(); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestGoldenDynamicDigests pins the dynamic operations on the golden
// deployment's Init tree (n = 256, seed 7): Network.Join of points beyond
// the grid's right edge, Network.Repair of an interior node and of the
// root, Network.RepairLinks, and a churn trace with mobility, which drives
// MoveIncremental.
func TestGoldenDynamicDigests(t *testing.T) {
	ctx := context.Background()
	nw, err := sinrconn.Open(goldenPoints(256))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	base, err := nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	seed := sinrconn.WithSeed(7)

	// The interior node is the smallest-index non-root node with a child,
	// so its failure orphans at least one subtree and a join runs.
	interior := -1
	for _, l := range base.Tree.Up {
		if v := l.Link.To; v != base.Tree.Root && (interior < 0 || v < interior) {
			interior = v
		}
	}
	ops := []struct {
		name string
		run  func() (*sinrconn.Result, error)
		want uint64
	}{
		{"join", func() (*sinrconn.Result, error) {
			return nw.Join(ctx, base, []sinrconn.Point{{X: 41.6, Y: 1.3}, {X: 41.6, Y: 13}, {X: 44.2, Y: 26}}, seed)
		}, 0x3b3e2b48209faafc},
		{"repair-interior", func() (*sinrconn.Result, error) {
			return nw.Repair(ctx, base, []int{interior}, seed)
		}, 0x43430ee1b3ad6b8c},
		{"repair-root", func() (*sinrconn.Result, error) {
			return nw.Repair(ctx, base, []int{base.Tree.Root}, seed)
		}, 0x312eb9ff5bba3837},
		{"repair-links", func() (*sinrconn.Result, error) {
			up := base.Tree.Up
			return nw.RepairLinks(ctx, base, []sinrconn.Link{up[0].Link, up[len(up)/2].Link}, seed)
		}, 0xe07e5c6eb2e8f265},
	}
	for _, op := range ops {
		r, err := op.run()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if r.Metrics.SlotsUsed == 0 {
			t.Fatalf("%s: no protocol slots ran — the digest tests no re-attachment", op.name)
		}
		d := newDigest()
		d.tree(r)
		if got := d.h.Sum64(); got != op.want {
			t.Errorf("%s: digest %#x, want %#x", op.name, got, op.want)
		}
	}

	rep, err := nw.Churn(ctx, sinrconn.TraceSpec{
		Seed:     7,
		Events:   24,
		JoinRate: 1,
		FailRate: 1,
		MoveRate: 2,
		Mobility: sinrconn.MobilityWaypoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.Moves == 0 || s.NodesMoved == 0 {
		t.Fatalf("mobility trace moved no tree node: %+v", s)
	}
	d := newDigest()
	d.tree(rep.Final)
	for _, v := range []int{
		s.Events, s.Joins, s.Fails, s.Moves, s.NodesFailed, s.NodesMoved,
		s.IncrementalRepairs, s.Restamps, s.Rebuilds, s.Retries,
		s.Compactions, s.SlotsUsed, s.PeakScheduleLength,
	} {
		d.int(v)
	}
	const wantMove = 0x33c7f0893a038df3
	if got := d.h.Sum64(); got != wantMove {
		t.Errorf("move churn: digest %#x, want %#x", got, uint64(wantMove))
	}
}
