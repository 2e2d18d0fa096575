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
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	only := fs.String("only", "", "run a single experiment ("+strings.Join(ids, ", ")+")")
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

	ctx := context.Background()
	ran, failed := 0, 0
	for _, e := range experiments.Registry() {
		if *only != "" {
			if !strings.EqualFold(*only, e.ID) {
				continue
			}
		} else if !*ablations && strings.HasPrefix(e.ID, "A") {
			continue
		}
		ran++
		start := time.Now()
		rep := e.Run(ctx, cfg)
		fmt.Fprintln(out, rep.Render())
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if !rep.Pass {
			failed++
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment %q", *only)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape check", failed)
	}
	return nil
}
