package sim

// Far-field engine config and saturation suite: the engine refuses a plan
// built over another instance, and a co-located transmitter drowns the
// channel on the far-field path exactly as on the exact one.

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
// semantics: a duplicate-point transmitter drowns every listener.
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
	e, err := NewEngine(in, procs, Config{Workers: 1, Far: q})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(3)
	st := e.Stats()
	if st.Deliveries != 0 {
		t.Fatalf("co-located senders delivered %d messages, want 0", st.Deliveries)
	}
	if st.Collisions == 0 {
		t.Fatal("saturation not recorded as collisions")
	}
}
