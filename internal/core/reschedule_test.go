package core

import (
	"context"
	"math"
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

func TestRescheduleMeanPower(t *testing.T) {
	in := uniformInstance(t, 50, 64)
	ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	rres, err := Reschedule(context.Background(), in, ires.Tree, pa, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rres.NumSlots < 1 {
		t.Fatal("empty schedule")
	}
	// Same links, new stamps; per-slot feasibility must hold under mean
	// power.
	if len(rres.Tree.Up) != len(ires.Tree.Up) {
		t.Fatalf("link count changed: %d vs %d", len(rres.Tree.Up), len(ires.Tree.Up))
	}
	if err := rres.Tree.ValidatePerSlotFeasible(in); err != nil {
		t.Fatalf("rescheduled slots infeasible: %v", err)
	}
	// The tree structure is untouched.
	if err := rres.Tree.Validate(); err != nil {
		t.Fatalf("rescheduled tree invalid: %v", err)
	}
	if !rres.Tree.StronglyConnected() {
		t.Fatal("rescheduled tree disconnected")
	}
}

func TestRescheduleRemovesLogDeltaDependence(t *testing.T) {
	// Theorem 3's point: on a high-Δ chain, the mean-power schedule is far
	// shorter than the uniform-power baseline.
	in := sinr.MustInstance(workload.ChainForDelta(48, 1<<20), sinr.DefaultParams())
	ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	uniformLen := UniformScheduleLength(in, ires.Tree)
	meanLen := MeanScheduleLength(in, ires.Tree)
	if meanLen > uniformLen {
		t.Errorf("mean power (%d slots) not better than uniform (%d slots) on a Δ=2^20 chain",
			meanLen, uniformLen)
	}
}

func TestRescheduleErrorPropagates(t *testing.T) {
	in := uniformInstance(t, 51, 16)
	ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Hopeless power exhausts the scheduler's budget; Reschedule must
	// surface its error.
	_, err = Reschedule(context.Background(), in, ires.Tree, sinr.Uniform{P: 1e-12},
		sim.Config{Seed: 1})
	if err == nil {
		t.Error("expected reschedule error")
	}
}

func TestScheduleLengthHelpers(t *testing.T) {
	in := uniformInstance(t, 52, 32)
	ires, err := Init(context.Background(), in, InitConfig{Channel: sim.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	u := UniformScheduleLength(in, ires.Tree)
	m := MeanScheduleLength(in, ires.Tree)
	if u < 1 || m < 1 {
		t.Errorf("degenerate schedule lengths: uniform=%d mean=%d", u, m)
	}
	if u > len(ires.Tree.Up) || m > len(ires.Tree.Up) {
		t.Errorf("schedule longer than one-link-per-slot: uniform=%d mean=%d links=%d",
			u, m, len(ires.Tree.Up))
	}
	_ = math.Max // keep math imported if assertions above change
}
