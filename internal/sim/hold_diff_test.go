package sim_test

// The held-action differential. A protocol that declares its next slot
// (sim.Action.Then and Hold) must run exactly as if the engine stepped it
// anyway. Every protocol that declares runs twice per case: once with held
// actions, and once with every live node stepped in every slot
// (sim.StepEveryNode), where the engine also panics on any step on an
// empty inbox that returns something other than what was declared. The two
// runs must agree on every result (trees, schedules, slot counts, Stats,
// errors), every SlotEvent and every node's inbox after every slot.

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sinrconn/internal/churn"
	"sinrconn/internal/core"
	"sinrconn/internal/geom"
	"sinrconn/internal/schedule"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// holdEps is the far-field error bound of the far cases.
const holdEps = 1.0

// slotRecorder digests, per protocol stage, every SlotEvent and every
// delivery of every slot an engine on its channel runs.
type slotRecorder struct {
	stage   string
	digests map[string]hash.Hash64
}

func (r *slotRecorder) sum() hash.Hash64 {
	h, ok := r.digests[r.stage]
	if !ok {
		h = fnv.New64a()
		r.digests[r.stage] = h
	}
	return h
}

// channel returns c with the recorder watching its slots.
func (r *slotRecorder) channel(c sim.Config) sim.Config {
	c.Observer = func(ev sim.SlotEvent) { fmt.Fprintf(r.sum(), "event %+v\n", ev) }
	return sim.WatchInboxes(c, func(slot int, inboxes [][]sim.Delivery) {
		h := r.sum()
		for i, box := range inboxes {
			for _, d := range box {
				fmt.Fprintf(h, "%d %d %+v %x %x %d\n", slot, i, d.Msg,
					math.Float64bits(d.Dist), math.Float64bits(d.SINR), d.Slot)
			}
		}
	})
}

// holdPipeline runs every protocol that declares held actions over in on
// channel ch, under the recorder r, and returns one line per result.
// Init builds a tree over every node, schedule.Distributed reschedules its
// links, a second Init over three quarters of the nodes is grown by a Join
// of the rest (a few members muted), and a churn trace of joins, failures,
// bursts and link showers then repairs that tree event by event.
func holdPipeline(t *testing.T, in *sinr.Instance, ch sim.Config, r *slotRecorder) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	add := func(stage string, v ...any) { out = append(out, stage+": "+fmt.Sprint(v...)) }

	r.stage = "init"
	ires, err := core.Init(ctx, in, core.InitConfig{Channel: ch})
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	add(r.stage, treeLine(ires.Tree), ires.SlotsUsed, ires.Rounds, ires.StrayLinks, ires.Stats)

	r.stage = "distributed"
	pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
	sres, err := schedule.Distributed(ctx, in, ires.Tree.Links(), pa, ch)
	if err != nil {
		add(r.stage, err)
	} else {
		add(r.stage, slotLine(sres.Slot), sres.NumSlots, sres.SlotPairs, sres.Stats)
	}

	n := in.Len()
	base := make([]int, 0, n)
	var joiners []int
	for v := 0; v < n; v++ {
		if v%4 == 3 {
			joiners = append(joiners, v)
		} else {
			base = append(base, v)
		}
	}
	r.stage = "join"
	bres, err := core.Init(ctx, in, core.InitConfig{Channel: ch, Participants: base})
	if err != nil {
		t.Fatalf("join base: %v", err)
	}
	add(r.stage, treeLine(bres.Tree), bres.SlotsUsed, bres.Stats)
	jres, err := core.Join(ctx, in, bres.Tree, joiners, core.InitConfig{Channel: ch, Mute: base[:len(base)/8]})
	if err != nil {
		add(r.stage, err)
	} else {
		add(r.stage, treeLine(jres.Tree), jres.Attached, jres.SlotsUsed, jres.Rounds, jres.Stats)
	}

	r.stage = "churn"
	out = append(out, holdChurn(t, in, bres.Tree, ch)...)
	return out
}

// holdChurn replays a churn trace through the core repairs the churn
// driver uses, each event's protocol on channel ch, and returns one line
// per event. Joins extend the instance (and re-plan a far channel over the
// extended one); failures and bursts repair incrementally; showers forbid
// the failed links for good. A repair that does not converge keeps the
// old tree, on both sides alike.
func holdChurn(t *testing.T, in *sinr.Instance, bt *tree.BiTree, ch sim.Config) []string {
	t.Helper()
	ctx := context.Background()
	gen, err := churn.NewGenerator(ch.Seed, churn.Rates{Join: 1, Fail: 1, Burst: 0.25, Shower: 0.5}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var forbidden []sinr.Link
	for k := 0; k < 8; k++ {
		ev, err := gen.Next(churn.State{Points: in.Points(), Alive: bt.Nodes, Links: bt.Links()})
		if err != nil {
			t.Fatalf("churn event %d: %v", k, err)
		}
		ch.Seed++
		cfg := core.InitConfig{Channel: ch, Forbidden: forbidden}
		var next *tree.BiTree
		var line string
		switch ev.Kind {
		case churn.KindJoin:
			if in, err = in.Extend([]geom.Point{ev.Point}); err != nil {
				t.Fatal(err)
			}
			if ch.Far != nil {
				if ch.Far, err = in.QuadTree(holdEps); err != nil {
					t.Fatal(err)
				}
				cfg.Channel = ch
			}
			var res *core.JoinResult
			if res, err = core.Join(ctx, in, bt, []int{in.Len() - 1}, cfg); err == nil {
				next, line = res.Tree, fmt.Sprint(res.SlotsUsed, res.Rounds, res.Stats)
			}
		case churn.KindFail, churn.KindBurst:
			var res *core.RepairResult
			if res, err = core.RepairIncremental(ctx, in, bt, ev.Nodes, cfg); err == nil {
				next, line = res.Tree, fmt.Sprint(res.NewRoot, res.OrphanRoots, res.SlotsUsed, res.Stats)
			}
		case churn.KindShower:
			forbidden = append(forbidden, ev.Links...)
			var res *core.RepairResult
			if res, err = core.RepairLinksIncremental(ctx, in, bt, ev.Links, cfg); err == nil {
				next, line = res.Tree, fmt.Sprint(res.NewRoot, res.OrphanRoots, res.SlotsUsed, res.Stats)
			}
		default:
			t.Fatalf("churn event %d: unexpected kind %v", k, ev.Kind)
		}
		switch {
		case err == nil:
			bt = next
			line = treeLine(bt) + " " + line
		case errors.Is(err, core.ErrNotConverged):
			line = err.Error()
		default:
			t.Fatalf("churn event %d (%v): %v", k, ev.Kind, err)
		}
		out = append(out, fmt.Sprintf("churn %d %v: %s", k, ev.Kind, line))
	}
	return out
}

func treeLine(bt *tree.BiTree) string {
	return fmt.Sprintf("root %d nodes %v up %+v", bt.Root, bt.Nodes, bt.Up)
}

func slotLine(slots map[sinr.Link]int) string {
	lines := make([]string, 0, len(slots))
	for l, s := range slots {
		lines = append(lines, fmt.Sprintf("%v=%d", l, s))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// TestHeldActionsMatchStepped runs holdPipeline over the scenario matrix
// and seeds 42, 123 and 456, on a serial exact engine, a pooled engine
// whose every stage fans out to four workers under 10% drops, a far
// engine that resolves every non-empty slot through the plan, and serial
// engines whose listen gate, for held listeners too, always compares
// every listener with every sender (scan) or always uses the cell grid
// (grid), and requires the held and the stepped run to agree on
// everything.
func TestHeldActionsMatchStepped(t *testing.T) {
	pool := sim.NewPool(4)
	defer pool.Close()
	n := 40
	if testing.Short() {
		n = 24
	}
	for _, spec := range workload.Matrix() {
		for _, seed := range []int64{42, 123, 456} {
			in := sinr.MustInstance(spec.Gen(rand.New(rand.NewSource(seed)), n), sinr.DefaultParams())
			q, err := in.QuadTree(holdEps)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				ch   sim.Config
			}{
				{"serial", sim.Config{Seed: seed}},
				{"pool_drop", sim.FanEveryStage(sim.Config{Seed: seed, Pool: pool, DropProb: 0.1})},
				{"far_drop", sim.FanEveryStage(sim.Config{Seed: seed, Pool: pool, DropProb: 0.1, Far: q, AdaptiveCrossover: 1})},
				{"scan", sim.GateBy(sim.Config{Seed: seed}, false)},
				{"grid_drop", sim.GateBy(sim.Config{Seed: seed, DropProb: 0.1}, true)},
			} {
				name := fmt.Sprintf("%s/seed=%d/%s", spec.Name, seed, c.name)
				held := &slotRecorder{digests: map[string]hash.Hash64{}}
				stepped := &slotRecorder{digests: map[string]hash.Hash64{}}
				got := holdPipeline(t, in, held.channel(c.ch), held)
				want := holdPipeline(t, in, stepped.channel(sim.StepEveryNode(c.ch)), stepped)
				if len(got) != len(want) {
					t.Fatalf("%s: %d result lines held, %d stepped", name, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s: result diverged\nheld:    %s\nstepped: %s", name, got[k], want[k])
					}
				}
				if len(held.digests) < 3 || len(held.digests) != len(stepped.digests) {
					t.Fatalf("%s: %d stages recorded slots held, %d stepped", name, len(held.digests), len(stepped.digests))
				}
				for stage, h := range held.digests {
					if s := stepped.digests[stage]; s == nil || h.Sum64() != s.Sum64() {
						t.Fatalf("%s: stage %s: slot events or inboxes diverged", name, stage)
					}
				}
			}
		}
	}
}
