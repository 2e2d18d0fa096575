package sim

// Far-field engine config, saturation and determinism suite: the engine
// refuses a plan built over another instance, a co-located transmitter
// drowns the channel on the far-field path exactly as on the exact one,
// and the far slot is worker-count independent bit for bit.

import (
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// recordingProto is fixedProto plus an inbox log.
type recordingProto struct {
	fixedProto
	got []Delivery
}

func (p *recordingProto) Step(slot int, inbox []Delivery) Action {
	p.got = append(p.got, inbox...)
	return p.fixedProto.Step(slot, inbox)
}

// TestFarFieldEngineRejectsForeignPlan pins the config validation: a plan
// built over a different instance must be refused.
func TestFarFieldEngineRejectsForeignPlan(t *testing.T) {
	pts := workload.JitteredGrid(rand.New(rand.NewSource(1)), 64, 3, 0.5)
	other := make([]geom.Point, len(pts))
	copy(other, pts)
	inA := sinr.MustInstance(pts, sinr.DefaultParams())
	inB := sinr.MustInstance(other, sinr.DefaultParams())
	q, err := inB.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Protocol, inA.Len())
	for i := range procs {
		procs[i] = &fixedProto{id: i}
	}
	if _, err := NewEngine(inA, procs, Config{Far: q}); err == nil {
		t.Fatal("engine accepted a far-field plan from a different instance")
	}
}

// TestFarFieldSaturation mirrors the exact engine's co-located-sender
// semantics: a duplicate-point transmitter drowns every listener of a
// slot forced through the plan.
func TestFarFieldSaturation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 5, Y: 0}, {X: 9, Y: 3}}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	q, err := in.QuadTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	power := in.Params().SafePower(4)
	procs := []Protocol{
		&fixedProto{id: 0, transmit: true, power: power},
		&fixedProto{id: 1, transmit: true, power: power},
		&fixedProto{id: 2},
		&fixedProto{id: 3},
	}
	far := 0
	e, err := NewEngine(in, procs, Config{Workers: 1, Far: q, AdaptiveCrossover: 1, Observer: countFar(&far)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(3)
	if far != 3 {
		t.Fatalf("%d of 3 slots resolved far, want all", far)
	}
	st := e.Stats()
	if st.Deliveries != 0 {
		t.Fatalf("co-located senders delivered %d messages, want 0", st.Deliveries)
	}
	if st.Collisions == 0 {
		t.Fatal("saturation not recorded as collisions")
	}
}

// countFar returns an Observer that counts into *n the slots resolved
// through the far-field plan.
func countFar(n *int) Observer {
	return func(ev SlotEvent) {
		if ev.Far {
			*n++
		}
	}
}

// assertRunsEqual compares two engine runs delivery-by-delivery.
func assertRunsEqual(t *testing.T, label string, aGot, bGot [][]Delivery, aStats, bStats Stats) {
	t.Helper()
	if aStats != bStats {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, aStats, bStats)
	}
	for i := range aGot {
		if len(aGot[i]) != len(bGot[i]) {
			t.Fatalf("%s: node %d: %d vs %d deliveries", label, i, len(aGot[i]), len(bGot[i]))
		}
		for k := range aGot[i] {
			if aGot[i][k] != bGot[i][k] {
				t.Fatalf("%s: node %d delivery %d: %+v vs %+v", label, i, k, aGot[i][k], bGot[i][k])
			}
		}
	}
}

// TestEngineFarDriftGate: the far slot decoded across a worker pool must
// not drift from its own serial run — every Delivery and every Stats field
// bit-identical. TestQuadtreePoolMatchesSerial compares Stats only; this
// gate compares each listener's inbox. Every slot is forced far
// (AdaptiveCrossover 1).
func TestEngineFarDriftGate(t *testing.T) {
	const n, slots = 256, 14
	run := func(workers int) ([][]Delivery, Stats) {
		pts := workload.JitteredGrid(rand.New(rand.NewSource(17)), n, 3, 0.8)
		in := sinr.MustInstance(pts, sinr.DefaultParams())
		power := in.Params().SafePower(4)
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := 0; i < n; i++ {
			recs[i] = &recordProto{inner: &burstProto{id: i, power: power}}
			procs[i] = recs[i]
		}
		q, err := in.QuadTree(0.5)
		if err != nil {
			t.Fatal(err)
		}
		far := 0
		e, err := NewEngine(in, procs, Config{Workers: workers, Far: q, AdaptiveCrossover: 1, Observer: countFar(&far)})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(slots)
		if far != slots {
			t.Fatalf("workers=%d: %d of %d slots resolved far, want all", workers, far, slots)
		}
		got := make([][]Delivery, n)
		for i, r := range recs {
			got[i] = r.got
		}
		return got, e.Stats()
	}

	refGot, refStats := run(1)
	for _, workers := range []int{2, 4} {
		got, stats := run(workers)
		assertRunsEqual(t, "pooled vs serial", refGot, got, refStats, stats)
	}
}
