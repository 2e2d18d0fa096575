// Command connect builds a connectivity structure for a generated wireless
// instance and prints the tree, its schedule, and the construction metrics.
//
// Usage:
//
//	connect -n 64 -workload uniform -pipeline arbitrary -seed 1 [-v]
//	connect -n 64 -sweep 8                  # all pipelines × 8 seeds, one Network
//	connect -n 256 -timeout 2s              # bound the construction time
//	connect -n 4096 -maxrelerr 0.5          # far-field approximate physics
//	connect -n 128 -churn events=200,join=1,fail=1.5,burst=0.3,shower=0.5
//	connect -n 128 -churn events=100,fail=1,move=2 -mobility citygrid
//
// Pipelines: init (Section 6), reschedule (Section 7), mean (Section 8,
// mean power), arbitrary (Section 8, power control).
// Workloads: every generator of the scenario matrix (workload.Matrix) —
// uniform, clusters, grid, chain, gaussians, annulus, powerlaw, city.
//
// Single runs and sweeps share one session: the point set is validated and
// the physics gain table built exactly once (Open), and the sweep fans out
// across the session's worker pool with bounded concurrency (RunMatrix).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sinrconn"

	"sinrconn/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("connect", flag.ContinueOnError)
	n := fs.Int("n", 64, "number of nodes")
	wl := fs.String("workload", "uniform", "workload: uniform|clusters|grid|chain|gaussians|annulus|powerlaw|city")
	pipeline := fs.String("pipeline", "arbitrary", "pipeline: init|reschedule|mean|arbitrary")
	seed := fs.Int64("seed", 1, "random seed")
	drop := fs.Float64("drop", 0, "reception drop probability in [0,1)")
	maxRelErr := fs.Float64("maxrelerr", 0, "far-field approximation error bound ε (0 = exact physics)")
	sweep := fs.Int("sweep", 0, "run all pipelines × this many seeds as one batch")
	churnSpec := fs.String("churn", "", "stream a churn trace instead of a single build: events=N[,join=R][,fail=R][,burst=R][,shower=R][,move=R][,burstradius=R][,showermax=N][,speed=R]")
	mobility := fs.String("mobility", "", "mobility model for churn move events: waypoint|citygrid")
	timeout := fs.Duration("timeout", 0, "abort constructions that exceed this duration (0 = none)")
	verbose := fs.Bool("v", false, "print every scheduled link")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pts, err := generate(*wl, *n, *seed)
	if err != nil {
		return err
	}
	opts := []sinrconn.Option{
		sinrconn.WithSeed(*seed),
		sinrconn.WithAutoNormalize(true),
	}
	if *drop > 0 {
		opts = append(opts, sinrconn.WithDropProb(*drop))
	}
	if *maxRelErr != 0 {
		// Non-zero values (including invalid negatives) flow to the option
		// so Open reports validation errors instead of silently running the
		// exact path.
		opts = append(opts, sinrconn.WithMaxRelError(*maxRelErr))
	}
	nw, err := sinrconn.Open(pts, opts...)
	if err != nil {
		return err
	}
	defer nw.Close()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *churnSpec != "" {
		if *sweep > 0 {
			return fmt.Errorf("-churn and -sweep are mutually exclusive")
		}
		conflict := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "pipeline" {
				conflict = true
			}
		})
		if conflict {
			return fmt.Errorf("-churn builds its own tree; drop the -pipeline flag")
		}
		trace, err := parseTrace(*churnSpec, *mobility, *seed)
		if err != nil {
			return err
		}
		return runChurn(ctx, out, nw, *wl, *n, trace)
	}
	if *mobility != "" {
		return fmt.Errorf("-mobility only applies to -churn traces")
	}

	if *sweep > 0 {
		conflict := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "pipeline" {
				conflict = true
			}
		})
		if conflict {
			return fmt.Errorf("-sweep runs every pipeline; drop the -pipeline flag")
		}
		return runSweep(ctx, out, nw, *wl, *n, *sweep, *seed)
	}

	p, err := parsePipeline(*pipeline)
	if err != nil {
		return err
	}
	res, err := nw.Run(ctx, p)
	if err != nil {
		return err
	}

	m := res.Metrics
	fmt.Fprintf(out, "workload=%s n=%d Δ=%.1f Υ=%.1f pipeline=%s seed=%d\n",
		*wl, *n, m.Delta, m.Upsilon, *pipeline, *seed)
	fmt.Fprintf(out, "root=%d  links=%d  schedule=%d slots  construction=%d slots\n",
		res.Tree.Root, len(res.Tree.Up), m.ScheduleLength, m.SlotsUsed)
	if m.AggregationLatency > 0 {
		fmt.Fprintf(out, "aggregation latency=%d  broadcast latency=%d\n",
			m.AggregationLatency, m.BroadcastLatency)
	}
	fmt.Fprintf(out, "max degree=%d  depth=%d  energy=%.3g\n",
		res.Tree.MaxDegree(), res.Tree.Depth(), m.Energy)
	if p.Ordered() {
		if err := res.Tree.Verify(); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintln(out, "verification: tree + ordering + per-slot feasibility OK")
	}
	if *verbose {
		links := append([]sinrconn.ScheduledLink(nil), res.Tree.Up...)
		sort.Slice(links, func(i, j int) bool {
			if links[i].Slot != links[j].Slot {
				return links[i].Slot < links[j].Slot
			}
			return links[i].From < links[j].From
		})
		for _, l := range links {
			fmt.Fprintf(out, "  slot %3d: %4d -> %-4d power %.3g\n", l.Slot, l.From, l.To, l.Power)
		}
	}
	return nil
}

// runSweep fans the open session out across pipelines × seeds with
// RunMatrix and prints one summary line per pipeline (mean over seeds).
// The seed family starts at the -seed flag, so sweeps are reproducible.
func runSweep(ctx context.Context, out io.Writer, nw *sinrconn.Network, wl string, n, seedCount int, baseSeed int64) error {
	pipes := sinrconn.Pipelines()
	seeds := make([]int64, seedCount)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}
	specs := sinrconn.Specs(pipes, seeds)
	start := time.Now()
	results, err := nw.RunMatrix(ctx, specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload=%s n=%d  %d specs in %v (one Network, shared gain table)\n",
		wl, n, len(specs), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "%-16s %10s %14s %10s\n", "pipeline", "schedule", "construction", "energy")
	for pi, p := range pipes {
		var sched, slots, energy float64
		for si := range seeds {
			m := results[pi*len(seeds)+si].Metrics
			sched += float64(m.ScheduleLength)
			slots += float64(m.SlotsUsed)
			energy += m.Energy
		}
		k := float64(len(seeds))
		fmt.Fprintf(out, "%-16s %10.1f %14.1f %10.3g\n", p, sched/k, slots/k, energy/k)
	}
	return nil
}

// parseTrace turns the -churn comma list into a TraceSpec. Unset rates
// default to zero; an all-zero mix is rejected by TraceSpec.Validate.
func parseTrace(spec, mobility string, seed int64) (sinrconn.TraceSpec, error) {
	trace := sinrconn.TraceSpec{Seed: seed}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return trace, fmt.Errorf("churn spec entry %q is not key=value", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return trace, fmt.Errorf("churn spec %s: %v", key, err)
		}
		switch key {
		case "events":
			trace.Events = int(f)
		case "join":
			trace.JoinRate = f
		case "fail":
			trace.FailRate = f
		case "burst":
			trace.BurstRate = f
		case "shower":
			trace.ShowerRate = f
		case "move":
			trace.MoveRate = f
		case "burstradius":
			trace.BurstRadius = f
		case "showermax":
			trace.ShowerMax = int(f)
		case "speed":
			trace.MobilitySpeed = f
		default:
			return trace, fmt.Errorf("unknown churn spec key %q", key)
		}
	}
	switch mobility {
	case "":
	case "waypoint":
		trace.Mobility = sinrconn.MobilityWaypoint
	case "citygrid":
		trace.Mobility = sinrconn.MobilityCityGrid
	default:
		return trace, fmt.Errorf("unknown mobility model %q (waypoint|citygrid)", mobility)
	}
	return trace, nil
}

// runChurn streams the trace and prints the engine's report.
func runChurn(ctx context.Context, out io.Writer, nw *sinrconn.Network, wl string, n int, trace sinrconn.TraceSpec) error {
	start := time.Now()
	rep, err := nw.Churn(ctx, trace)
	if err != nil {
		return err
	}
	st := rep.Stats
	fmt.Fprintf(out, "workload=%s n=%d churn: %d events in %v (%.0f events/sec)\n",
		wl, n, st.Events, time.Since(start).Round(time.Millisecond),
		float64(st.Events)/time.Since(start).Seconds())
	fmt.Fprintf(out, "joins=%d (damped %d)  fails=%d  bursts=%d  showers=%d  moves=%d  nodes failed=%d moved=%d\n",
		st.Joins, st.DampedJoins, st.Fails, st.Bursts, st.Showers, st.Moves,
		st.NodesFailed, st.NodesMoved)
	fmt.Fprintf(out, "incremental=%d  restamps=%d  rebuilds=%d  retries=%d  compactions=%d  muted peak=%d\n",
		st.IncrementalRepairs, st.Restamps, st.Rebuilds, st.Retries, st.Compactions, st.MutedPeak)
	fmt.Fprintf(out, "slots used=%d  peak schedule=%d  soft errors=%d\n",
		st.SlotsUsed, st.PeakScheduleLength, len(rep.Soft))
	fmt.Fprintf(out, "final: root=%d  nodes=%d  links=%d  schedule=%d slots\n",
		rep.Final.Tree.Root, rep.Final.Tree.NumNodes, len(rep.Final.Tree.Up),
		rep.Final.Metrics.ScheduleLength)
	if rep.Final.Tree.NumNodes > 1 {
		if err := rep.Final.Tree.Verify(); err != nil {
			return fmt.Errorf("final tree verification failed: %w", err)
		}
		fmt.Fprintln(out, "verification: tree + ordering + per-slot feasibility OK")
	}
	return nil
}

func parsePipeline(name string) (sinrconn.Pipeline, error) {
	switch name {
	case "init":
		return sinrconn.PipelineInit, nil
	case "reschedule":
		return sinrconn.PipelineRescheduleMean, nil
	case "mean":
		return sinrconn.PipelineTVCMean, nil
	case "arbitrary":
		return sinrconn.PipelineTVCArbitrary, nil
	}
	return 0, fmt.Errorf("unknown pipeline %q", name)
}

func generate(name string, n int, seed int64) ([]sinrconn.Point, error) {
	for _, spec := range workload.Matrix() {
		if spec.Name != name {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		g := spec.Gen(rng, n)
		pts := make([]sinrconn.Point, len(g))
		for i, p := range g {
			pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
		}
		return pts, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
