package schedule

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

func lineInstance(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func scatterInstance(t testing.TB, seed int64, n int, span float64) *sinr.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		cand := geom.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		ok := true
		for _, p := range pts {
			if p.Dist(cand) < 1 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, cand)
		}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func pairLinks(n int) []sinr.Link {
	var links []sinr.Link
	for i := 0; i+1 < n; i += 2 {
		links = append(links, sinr.Link{From: i, To: i + 1})
	}
	return links
}

func TestFirstFitFarLinksOneSlot(t *testing.T) {
	in := lineInstance(t, 0, 1, 5000, 5001, 10000, 10001)
	links := pairLinks(6)
	slots, bad := FirstFit(in, links, sinr.NoiseSafeLinear(in.Params()))
	if len(bad) != 0 {
		t.Fatalf("unschedulable: %v", bad)
	}
	if len(slots) != 1 {
		t.Fatalf("slots = %d, want 1", len(slots))
	}
	if len(slots[0]) != 3 {
		t.Fatalf("slot size = %d", len(slots[0]))
	}
}

func TestFirstFitNodeConflictSeparated(t *testing.T) {
	// Two links sharing node 1 can never share a slot.
	in := lineInstance(t, 0, 1, 2)
	links := []sinr.Link{{From: 0, To: 1}, {From: 1, To: 2}}
	slots, bad := FirstFit(in, links, sinr.NoiseSafeLinear(in.Params()))
	if len(bad) != 0 {
		t.Fatalf("unschedulable: %v", bad)
	}
	if len(slots) != 2 {
		t.Fatalf("slots = %d, want 2", len(slots))
	}
}

func TestFirstFitSlotsAreFeasible(t *testing.T) {
	in := scatterInstance(t, 3, 40, 60)
	links := pairLinks(40)
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	slots, bad := FirstFit(in, links, pa)
	if len(bad) != 0 {
		t.Fatalf("unschedulable: %v", bad)
	}
	total := 0
	for s, group := range slots {
		total += len(group)
		if !in.Feasible(group, pa) {
			t.Errorf("slot %d infeasible", s)
		}
	}
	if total != len(links) {
		t.Errorf("scheduled %d of %d links", total, len(links))
	}
}

func TestFirstFitOrders(t *testing.T) {
	in := scatterInstance(t, 7, 30, 50)
	links := pairLinks(30)
	pa := sinr.NoiseSafeLinear(in.Params())
	slots, bad := FirstFit(in, links, pa)
	if len(bad) != 0 {
		t.Fatalf("unschedulable: %v", bad)
	}
	n := 0
	for _, g := range slots {
		n += len(g)
	}
	if n != len(links) {
		t.Errorf("scheduled %d links", n)
	}
	// Longest first: the first link placed opens slot 0.
	for _, l := range links {
		if in.Length(l) > in.Length(slots[0][0]) {
			t.Fatalf("slot 0 opens with %v, but %v is longer", slots[0][0], l)
		}
	}
}

func TestFirstFitUnschedulable(t *testing.T) {
	in := lineInstance(t, 0, 10)
	links := []sinr.Link{{From: 0, To: 1}}
	// Power far below the noise floor: the link can never be feasible.
	slots, bad := FirstFit(in, links, sinr.Uniform{P: 1e-9})
	if len(slots) != 0 || len(bad) != 1 {
		t.Fatalf("slots=%d bad=%d, want 0/1", len(slots), len(bad))
	}
}

func TestDistributedSchedulesAll(t *testing.T) {
	in := scatterInstance(t, 11, 30, 60)
	links := pairLinks(30)
	pa := sinr.NoiseSafeLinear(in.Params())
	res, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slot) != len(links) {
		t.Fatalf("scheduled %d of %d", len(res.Slot), len(links))
	}
	if res.NumSlots < 1 || res.NumSlots > res.SlotPairs {
		t.Errorf("NumSlots=%d SlotPairs=%d", res.NumSlots, res.SlotPairs)
	}
	// Links sharing a compacted slot succeeded concurrently; verify
	// feasibility of each group under pa.
	groups := map[int][]sinr.Link{}
	for l, s := range res.Slot {
		groups[s] = append(groups[s], l)
	}
	for s, g := range groups {
		if !in.Feasible(g, pa) {
			t.Errorf("slot %d not feasible: %v", s, g)
		}
	}
}

func TestDistributedDeterministic(t *testing.T) {
	in := scatterInstance(t, 13, 20, 50)
	links := pairLinks(20)
	pa := sinr.NoiseSafeLinear(in.Params())
	a, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSlots != b.NumSlots || a.SlotPairs != b.SlotPairs {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for l, s := range a.Slot {
		if b.Slot[l] != s {
			t.Fatalf("slot mismatch for %v", l)
		}
	}
}

func TestDistributedSharedSenderMultiplexed(t *testing.T) {
	// Node 0 is the sender of two links; they must end up in different
	// slots and both get scheduled.
	in := lineInstance(t, 0, 2, 4)
	links := []sinr.Link{{From: 0, To: 1}, {From: 0, To: 2}}
	pa := sinr.NoiseSafeLinear(in.Params())
	res, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slot) != 2 {
		t.Fatalf("scheduled %d of 2", len(res.Slot))
	}
	if res.Slot[links[0]] == res.Slot[links[1]] {
		t.Error("shared-sender links share a slot")
	}
}

func TestDistributedEmptyAndErrors(t *testing.T) {
	in := lineInstance(t, 0, 2)
	res, err := Distributed(context.Background(), in, nil, sinr.NoiseSafeLinear(in.Params()), sim.Config{})
	if err != nil || len(res.Slot) != 0 {
		t.Errorf("empty run: %v %v", res, err)
	}
	if _, err := Distributed(context.Background(), in, []sinr.Link{{From: 1, To: 1}}, sinr.NoiseSafeLinear(in.Params()), sim.Config{}); err == nil {
		t.Error("self-loop accepted")
	}
	// Hopeless power must exhaust the budget (800 slot-pairs for one link)
	// and report ErrIncomplete.
	_, err = Distributed(context.Background(), in, []sinr.Link{{From: 0, To: 1}}, sinr.Uniform{P: 1e-12},
		sim.Config{})
	if !errors.Is(err, ErrIncomplete) {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
}

func TestDistributedComparableToFirstFit(t *testing.T) {
	// Sanity: the distributed schedule should be within a generous constant
	// factor of the centralized greedy on a moderate instance.
	in := scatterInstance(t, 17, 40, 80)
	links := pairLinks(40)
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	ff, bad := FirstFit(in, links, pa)
	if len(bad) != 0 {
		t.Fatalf("unschedulable: %v", bad)
	}
	res, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSlots > 60*len(ff)+60 {
		t.Errorf("distributed %d slots vs centralized %d", res.NumSlots, len(ff))
	}
}

func BenchmarkFirstFit(b *testing.B) {
	in := scatterInstance(b, 1, 100, 120)
	links := pairLinks(100)
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FirstFit(in, links, pa)
	}
}

func BenchmarkDistributed(b *testing.B) {
	in := scatterInstance(b, 2, 60, 100)
	links := pairLinks(60)
	pa := sinr.NoiseSafeMean(in.Params(), in.Delta())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDistributedStatsExposed(t *testing.T) {
	in := scatterInstance(t, 29, 16, 40)
	links := pairLinks(16)
	pa := sinr.NoiseSafeLinear(in.Params())
	res, err := Distributed(context.Background(), in, links, pa, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Transmissions == 0 || res.Stats.Energy <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}
