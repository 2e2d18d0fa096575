package experiments

// E15 exercises the public session API end to end: one sinrconn.Network per
// instance size, every pipeline × seed fanned out through RunMatrix. It is
// the experiment-level consumer of the batch substrate (the same path
// cmd/connect -sweep and the root scenario-matrix suite use) and checks the
// session contract: every spec returns a spanning tree, repeated specs are
// served from the memo (identical pointers), and the amortized per-run cost
// of the shared handle stays below a fresh Open+Run+Close per call, which
// re-pays geometry validation, the gain table and the worker pool.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sinrconn"

	"sinrconn/internal/stats"
	"sinrconn/internal/workload"
)

// E15SessionMatrix measures the session API's batch path.
func E15SessionMatrix(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E15",
		Title: "Session API batch sweep",
		Claim: "engineering: one Network serves pipelines × seeds off a shared instance; amortized reuse beats per-call rebuild",
		Table: stats.NewTable("n", "specs", "spanned", "batch ms", "rebuild ms", "reuse/call ms"),
	}
	r.Pass = true
	seeds := make([]int64, cfg.Seeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	for _, n := range cfg.Sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		gpts := workload.UniformDensity(rng, n, 0.15)
		pts := make([]sinrconn.Point, len(gpts))
		for i, p := range gpts {
			pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
		}

		nw, err := sinrconn.Open(pts, sinrconn.WithWorkers(cfg.Workers))
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: open failed: %v", n, err))
			r.Pass = false
			continue
		}
		specs := sinrconn.Specs([]sinrconn.Pipeline{sinrconn.PipelineInit, sinrconn.PipelineTVCArbitrary}, seeds)
		start := time.Now()
		results, err := nw.RunMatrix(ctx, specs)
		batch := time.Since(start)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: matrix: %v", n, err))
			r.Pass = false
		}
		spanned := 0
		for _, res := range results {
			if res != nil && res.Tree.NumNodes == n {
				spanned++
			}
		}
		if spanned != len(specs) {
			r.Pass = false
		}

		// Memoization: re-running the first spec must return the identical
		// result pointer without re-constructing.
		if len(results) > 0 && results[0] != nil {
			again, err := nw.Run(ctx, specs[0].Pipeline, specs[0].Opts...)
			if err != nil || again != results[0] {
				r.Notes = append(r.Notes, fmt.Sprintf("n=%d: memo miss on repeated spec", n))
				r.Pass = false
			}
		}

		// Amortization: a fresh-seed run on the warm handle versus a
		// one-shot handle that rebuilds instance state per call.
		start = time.Now()
		if err := oneShotInit(ctx, pts, cfg.Workers, 99); err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: one-shot: %v", n, err))
			r.Pass = false
		}
		rebuild := time.Since(start)
		start = time.Now()
		if _, err := nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(99)); err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: reuse run: %v", n, err))
			r.Pass = false
		}
		reuse := time.Since(start)
		nw.Close()

		r.Table.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(specs)),
			fmt.Sprintf("%d/%d", spanned, len(specs)),
			fmt.Sprintf("%.1f", float64(batch.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(rebuild.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(reuse.Microseconds())/1000),
		)
	}
	return r
}

// oneShotInit runs PipelineInit on a handle opened for this call alone.
func oneShotInit(ctx context.Context, pts []sinrconn.Point, workers int, seed int64) error {
	nw, err := sinrconn.Open(pts, sinrconn.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer nw.Close()
	_, err = nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(seed))
	return err
}
