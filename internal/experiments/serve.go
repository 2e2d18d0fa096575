package experiments

// E19 measures serving throughput against the result-cache geometry: a
// closed-loop load (internal/serve/loadgen) drives the daemon handler
// in-process over a fixed repeat-heavy keyspace while the deployment's
// cache capacity sweeps from thrashing (1 entry) to covering (keyspace),
// plus a TTL cell where every entry expires between arrivals. Hit rate is
// the capacity gauge — a memo hit is ~5×10⁴× cheaper than a rebuild
// (BENCH_api.json) — so throughput must climb with capacity and collapse
// when the TTL voids the cache.

import (
	"context"
	"fmt"

	"sinrconn/internal/churn"
	"sinrconn/internal/serve"
	"sinrconn/internal/serve/loadgen"
	"sinrconn/internal/stats"
)

// E19Serve sweeps cache capacity and TTL under closed-loop load.
func E19Serve(ctx context.Context, cfg Config) Report {
	cfg.defaults()
	r := Report{
		ID:    "E19",
		Title: "Serving throughput vs result-cache geometry",
		Claim: "serving: hit rate and throughput rise monotonically with cache capacity on a repeat-heavy trace, reach ≥90% hits once the cache covers the keyspace, and collapse when the TTL expires entries between arrivals",
		Table: stats.NewTable("cache", "ttl", "requests", "hit rate", "evict/req", "req/s", "p50 ms", "p99 ms"),
	}
	r.Pass = true
	n := cfg.Sizes[len(cfg.Sizes)-1]
	const keyspace = 8
	requests := 120 * cfg.Seeds

	type cell struct {
		name  string
		size  int
		ttlMs int64
	}
	cells := []cell{
		{"1", 1, 0},
		{"2", 2, 0},
		{"4", 4, 0},
		{"8=keys", keyspace, 0},
		{"8=keys", keyspace, 1}, // TTL voids every entry between arrivals
	}
	hitBySize := map[int]float64{}
	var ttlHit, coveredHit float64
	for _, c := range cells {
		var hits, misses, evict uint64
		var reqs int
		var rps, p50, p99 float64
		for s := 0; s < cfg.Seeds; s++ {
			srv := serve.New(serve.Config{})
			report, err := loadgen.Run(ctx, loadgen.Config{
				Handler:    srv.Handler(),
				Clients:    8,
				Sessions:   8,
				Requests:   requests / cfg.Seeds,
				N:          n,
				Seed:       int64(s + 1),
				Arrival:    churn.ArrivalSpec{Rate: 500, Mix: churn.MixPoisson},
				Keyspace:   keyspace,
				CacheSize:  c.size,
				CacheTTLMs: c.ttlMs,
				Warmup:     true,
			})
			srv.Close()
			if err != nil {
				r.Notes = append(r.Notes, fmt.Sprintf("cache=%s ttl=%dms seed %d: %v", c.name, c.ttlMs, s, err))
				r.Pass = false
				continue
			}
			hits += report.Hits
			misses += report.Misses
			evict += report.Evictions
			reqs += report.Requests
			rps += report.Throughput
			p50 += report.P50Ms
			p99 += report.P99Ms
		}
		k := float64(cfg.Seeds)
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		ttl := "∞"
		if c.ttlMs > 0 {
			ttl = fmt.Sprintf("%dms", c.ttlMs)
		}
		r.Table.AddRow(c.name, ttl, reqs,
			fmt.Sprintf("%.3f", hitRate),
			fmt.Sprintf("%.2f", float64(evict)/float64(reqs)),
			fmt.Sprintf("%.0f", rps/k),
			fmt.Sprintf("%.3f", p50/k),
			fmt.Sprintf("%.3f", p99/k))
		if c.ttlMs > 0 {
			ttlHit = hitRate
		} else {
			hitBySize[c.size] = hitRate
			if c.size == keyspace {
				coveredHit = hitRate
			}
		}
	}

	// Shape checks: monotone hit rate in capacity, ≥90% once covering,
	// TTL expiry collapses the hit rate well below the covered cell.
	prev := -1.0
	for _, size := range []int{1, 2, 4, keyspace} {
		h := hitBySize[size]
		if h < prev-0.05 {
			r.Notes = append(r.Notes, fmt.Sprintf("hit rate not monotone: capacity %d → %.3f after %.3f", size, h, prev))
			r.Pass = false
		}
		prev = h
	}
	if coveredHit < 0.90 {
		r.Notes = append(r.Notes, fmt.Sprintf("covering cache hit rate %.3f < 0.90", coveredHit))
		r.Pass = false
	}
	if ttlHit > coveredHit/2 {
		r.Notes = append(r.Notes, fmt.Sprintf("1ms TTL hit rate %.3f did not collapse (covered: %.3f)", ttlHit, coveredHit))
		r.Pass = false
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("n=%d, keyspace %d, 8 closed-loop clients at 500/s Poisson think time, %d requests per cell over %d seeds; every key warmed before measurement so cells differ only by eviction/expiry behavior", n, keyspace, requests, cfg.Seeds),
		"the TTL cell reuses the covering capacity: with 1ms TTL and ~2ms mean inter-arrival per key, effectively every lookup expires — throughput degrades to the compute path's rate")
	return r
}
