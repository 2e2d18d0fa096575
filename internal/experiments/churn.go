package experiments

// E18 measures availability under continuous churn: a mixed trace (joins,
// failures, correlated bursts, link showers) streamed through
// sinrconn.Network.Churn with the failure-side rates scaled by increasing
// multipliers against a fixed join rate. The
// engine's contract is that the live tree spans every survivor after EVERY
// event, so "availability" decomposes into how the engine paid for it: the
// fraction of events absorbed by incremental schedule splicing versus the
// full rebuilds and reseeded retries the degradation ladder had to spend.
// At low churn virtually everything splices; as the rate multiplier grows,
// bursts overlap and the rebuild/retry share climbs — the measured price
// of robustness, not a loss of availability (runs with a shrunk-but-valid
// final tree still pass).

import (
	"context"
	"fmt"

	"sinrconn"

	"sinrconn/internal/stats"
)

// E18Churn sweeps churn intensity and reports repair-path shares.
func E18Churn(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E18",
		Title: "Availability under continuous churn",
		Claim: "robustness: the churned tree spans all survivors after every event; incremental splicing absorbs the bulk of the repair work, degrading gracefully to rebuilds as churn intensifies",
		Table: stats.NewTable("rate×", "events", "final n", "incremental", "rebuilds", "restamps", "retries", "damped", "verify"),
	}
	r.Pass = true
	n := cfg.Sizes[len(cfg.Sizes)-1]
	events := 8 * cfg.Seeds // per seed: enough churn to shrink and recover
	for _, mult := range []float64{0.5, 1, 2, 4} {
		var incr, rebuilds, restamps, retries, damped, finalN int
		verified := true
		for s := 0; s < cfg.Seeds; s++ {
			pts := facadeUniform(int64(n)+int64(s), n)
			nw, err := sinrconn.Open(pts)
			if err != nil {
				r.Notes = append(r.Notes, fmt.Sprintf("rate×%.1f seed %d: open: %v", mult, s, err))
				r.Pass = false
				continue
			}
			// Scale the failure side against a fixed join rate: the
			// generator picks kinds by relative weight, so a uniform
			// multiplier would replay the identical event sequence.
			trace := sinrconn.TraceSpec{
				Seed:       int64(s + 1),
				Events:     events,
				JoinRate:   1,
				FailRate:   1.2 * mult,
				BurstRate:  0.25 * mult,
				ShowerRate: 0.5 * mult,
			}
			rep, err := nw.Churn(ctx, trace, sinrconn.WithChurnAudit(true))
			if err != nil {
				r.Notes = append(r.Notes, fmt.Sprintf("rate×%.1f seed %d: churn: %v", mult, s, err))
				r.Pass = false
				nw.Close()
				continue
			}
			incr += rep.Stats.IncrementalRepairs
			rebuilds += rep.Stats.Rebuilds
			restamps += rep.Stats.Restamps
			retries += rep.Stats.Retries
			damped += rep.Stats.DampedJoins
			finalN += rep.Final.Tree.NumNodes
			if rep.Final.Tree.NumNodes > 1 {
				if err := rep.Final.Tree.Verify(); err != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("rate×%.1f seed %d: final verify: %v", mult, s, err))
					verified = false
					r.Pass = false
				}
			}
			nw.Close()
		}
		k := float64(cfg.Seeds)
		verdict := "OK"
		if !verified {
			verdict = "FAIL"
		}
		r.Table.AddRow(mult, events,
			fmt.Sprintf("%.1f", float64(finalN)/k),
			fmt.Sprintf("%.1f", float64(incr)/k),
			fmt.Sprintf("%.1f", float64(rebuilds)/k),
			fmt.Sprintf("%.1f", float64(restamps)/k),
			fmt.Sprintf("%.1f", float64(retries)/k),
			fmt.Sprintf("%.1f", float64(damped)/k),
			verdict)
	}
	r.Notes = append(r.Notes,
		"audit mode: the full invariant battery (tree, connectivity, ordering, per-slot SINR feasibility) ran after every single event of every run",
		fmt.Sprintf("n=%d, %d seeds per rate; the multiplier scales the failure side (fail=1.2, burst=0.25, shower=0.5) against a fixed join=1, shifting the kind mix toward correlated loss", n, cfg.Seeds))
	return r
}

// facadeUniform builds facade points for the churn deployment.
func facadeUniform(seed int64, n int) []sinrconn.Point {
	in := uniformInst(seed, n)
	pts := make([]sinrconn.Point, in.Len())
	for i := range pts {
		p := in.Point(i)
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts
}
