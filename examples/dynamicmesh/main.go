// Dynamicmesh: the lifecycle the paper's conclusion asks for — nodes wake
// up asynchronously after the network is formed, and nodes fail and must
// be routed around. Build a bi-tree, attach a batch of late joiners
// distributedly, then kill an interior node (and later the root) and
// repair. Every intermediate structure is re-verified.
//
//	go run ./examples/dynamicmesh
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"sinrconn"
)

func main() {
	if err := run(os.Stdout, 48, 18, 1); err != nil {
		log.Fatal(err)
	}
}

// run walks the full lifecycle on n nodes scattered on a span×span square.
// seed drives the protocol randomness only; the topology seed is fixed so
// the example's mesh (and narrative output) stays stable across seeds.
func run(out io.Writer, n int, span float64, seed int64) error {
	rng := rand.New(rand.NewSource(99))
	pts := scatter(rng, n, span)

	nw, err := sinrconn.Open(pts, sinrconn.WithSeed(seed))
	if err != nil {
		return err
	}
	defer nw.Close()
	ctx := context.Background()
	res, err := nw.Run(ctx, sinrconn.PipelineInit)
	if err != nil {
		return err
	}
	if err := report(out, "initial network", res); err != nil {
		return err
	}

	// A remote cluster of three nodes powers on, clear of the square.
	off := span + 42
	late := []sinrconn.Point{{X: off, Y: 5}, {X: off + 2.5, Y: 3}, {X: off + 4, Y: 6}}
	// The grown result is bound to a derived handle over the enlarged
	// point set (res.Network()), which later operations run on.
	res, err = nw.Join(ctx, res, late, sinrconn.WithSeed(seed+1))
	if err != nil {
		return err
	}
	if err := report(out, "after 3 late joiners", res); err != nil {
		return err
	}

	// An interior node dies; its subtrees must re-attach. Scan node ids in
	// order (not map order) so the chosen victim — and the rest of the
	// narrative — is deterministic. (Fall back to the first non-root node
	// if the tree happens to have no 2-child interior node.)
	par := res.Tree.Parent()
	counts := map[int]int{}
	for _, p := range par {
		counts[p]++
	}
	victim := -1
	for v := 0; v < res.Tree.NumNodes && victim < 0; v++ {
		if v != res.Tree.Root && counts[v] >= 2 {
			victim = v
		}
	}
	for v := 0; v < res.Tree.NumNodes && victim < 0; v++ {
		if v != res.Tree.Root {
			if _, ok := par[v]; ok {
				victim = v
			}
		}
	}
	res, err = res.Network().Repair(ctx, res, []int{victim}, sinrconn.WithSeed(seed+2))
	if err != nil {
		return err
	}
	if err := report(out, fmt.Sprintf("after interior node %d failed", victim), res); err != nil {
		return err
	}

	// The root itself dies; a new root is promoted.
	old := res.Tree.Root
	res, err = res.Network().Repair(ctx, res, []int{old}, sinrconn.WithSeed(seed+3))
	if err != nil {
		return err
	}
	if err := report(out, fmt.Sprintf("after root %d failed (new root %d)", old, res.Tree.Root), res); err != nil {
		return err
	}

	// A link is blocked by an obstacle (both endpoints alive); the orphaned
	// subtree must re-attach without re-forming that link.
	blocked := res.Tree.Up[0].Link
	res, err = res.Network().RepairLinks(ctx, res, []sinrconn.Link{blocked}, sinrconn.WithSeed(seed+4))
	if err != nil {
		return err
	}
	for _, l := range res.Tree.Up {
		if l.Link == blocked {
			return fmt.Errorf("blocked link re-formed")
		}
	}
	return report(out, fmt.Sprintf("after link %d->%d was blocked", blocked.From, blocked.To), res)
}

func report(out io.Writer, stage string, res *sinrconn.Result) error {
	if err := res.Tree.Verify(); err != nil {
		return fmt.Errorf("%s: verification failed: %w", stage, err)
	}
	m := res.Metrics
	fmt.Fprintf(out, "%-36s nodes=%-3d schedule=%-3d channel slots=%-5d agg latency=%d\n",
		stage, res.Tree.NumNodes, m.ScheduleLength, m.SlotsUsed, m.AggregationLatency)
	return nil
}

func scatter(rng *rand.Rand, n int, span float64) []sinrconn.Point {
	var pts []sinrconn.Point
	for len(pts) < n {
		cand := sinrconn.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		ok := true
		for _, p := range pts {
			if math.Hypot(p.X-cand.X, p.Y-cand.Y) < 1 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, cand)
		}
	}
	return pts
}
