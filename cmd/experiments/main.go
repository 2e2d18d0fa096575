// Command experiments regenerates every table in EXPERIMENTS.md: one
// experiment per theorem of the paper, each ending in a shape-check verdict.
//
// Usage:
//
//	experiments            # full sweep (minutes)
//	experiments -quick     # reduced sweep (seconds)
//	experiments -only E6   # a single experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sinrconn/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sweep for smoke testing")
	only := fs.String("only", "", "run a single experiment (E1..E20, A1..A5)")
	seeds := fs.Int("seeds", 0, "override trials per cell")
	ablations := fs.Bool("ablations", false, "also run the A1..A5 design-choice sweeps")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.Quick()
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}

	type entry struct {
		id  string
		run func(context.Context, experiments.Config) experiments.Report
	}
	all := []entry{
		{"E1", experiments.E1InitSlots},
		{"E2", experiments.E2BiTreeValidity},
		{"E3", experiments.E3DegreeTail},
		{"E4", experiments.E4Sparsity},
		{"E5", experiments.E5LowDegreeFilter},
		{"E6", experiments.E6MeanReschedule},
		{"E7", experiments.E7Iterations},
		{"E8", experiments.E8ArbitraryPower},
		{"E9", experiments.E9MeanPower},
		{"E10", experiments.E10Crossover},
		{"E11", experiments.E11Latency},
		{"E12", experiments.E12CapacityRatio},
		{"E13", experiments.E13Energy},
		{"E14", experiments.E14PhysicalEpoch},
		{"E15", experiments.E15SessionMatrix},
		{"E17", experiments.E17Quadtree},
		{"E18", experiments.E18Churn},
		{"E19", experiments.E19Serve},
		{"E20", experiments.E20SlotEngine},
	}
	abl := []entry{
		{"A1", experiments.A1BroadcastProb},
		{"A2", experiments.A2SlotPairsPerRound},
		{"A3", experiments.A3DistrCapTau},
		{"A4", experiments.A4DegreeCap},
		{"A5", experiments.A5DropRobustness},
	}
	if *ablations {
		all = append(all, abl...)
	} else if *only != "" && strings.HasPrefix(strings.ToUpper(*only), "A") {
		all = abl
	}

	ctx := context.Background()
	failed := 0
	for _, e := range all {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		start := time.Now()
		rep := e.run(ctx, cfg)
		fmt.Fprintln(out, rep.Render())
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		if !rep.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape check", failed)
	}
	return nil
}
