package sinrconn_test

// Serving-daemon load harness. TestServeHeavyLoadAcceptance is the
// acceptance gate: ≥1000 concurrent sessions over one n=1024 deployment,
// closed-loop clients on seeded arrival traces, asserting zero errors, the
// shared deployment and a result-cache hit rate ≥ 90% on the repeat-heavy
// steady state, across 3 seeds and both arrival mixes. It asserts nothing
// about latency: a tail ratio over microsecond cache hits measures GC and
// scheduler jitter, not the daemon, so the tail is a reported benchmark
// metric (cmd/bench, serve.run_tail_ms) instead. BenchmarkServeLoadgen is
// the CI bench smoke. Headline numbers recorded in BENCH_serve.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sinrconn/internal/churn"
	"sinrconn/internal/serve"
	"sinrconn/internal/serve/loadgen"
)

func runLoad(t testing.TB, cfg loadgen.Config) *loadgen.Report {
	t.Helper()
	srv := serve.New(serve.Config{})
	defer srv.Close()
	cfg.Handler = srv.Handler()
	report, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestServeHeavyLoadAcceptance is slow (~1 min): it stands up the full
// 1000-session deployment three times per arrival mix. -short skips it;
// the CI daemon lane and the BENCH_serve.json refresh run it in full.
func TestServeHeavyLoadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy load acceptance: run without -short")
	}
	for _, mix := range []churn.ArrivalMix{churn.MixPoisson, churn.MixBursty} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", mix, seed), func(t *testing.T) {
				report := runLoad(t, loadgen.Config{
					Clients:  64,
					Sessions: 1000,
					Requests: 4000,
					N:        1024,
					Seed:     seed,
					Arrival:  churn.ArrivalSpec{Rate: 1000, Mix: mix},
					Keyspace: 8,
					Warmup:   true,
				})
				raw, _ := json.Marshal(report)
				t.Logf("report: %s", raw)

				if report.Errors > 0 {
					t.Fatalf("%d request errors under load", report.Errors)
				}
				if report.Requests < 3900 {
					t.Fatalf("only %d requests completed, want ≈4000", report.Requests)
				}
				if report.SharedSessions != 999 {
					t.Fatalf("shared sessions = %d, want 999 (1000 sessions, one deployment)", report.SharedSessions)
				}
				if report.HitRate < 0.90 {
					t.Fatalf("steady-state hit rate %.3f, want ≥ 0.90", report.HitRate)
				}
			})
		}
	}
}

// BenchmarkServeLoadgen is the bench-smoke surface: one short closed-loop
// load per arrival mix at moderate scale, reporting throughput and tail
// latency as benchmark metrics.
func BenchmarkServeLoadgen(b *testing.B) {
	for _, mix := range []churn.ArrivalMix{churn.MixPoisson, churn.MixBursty} {
		b.Run(mix.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report := runLoad(b, loadgen.Config{
					Clients:  16,
					Sessions: 64,
					Requests: 800,
					N:        256,
					Seed:     int64(i + 1),
					Arrival:  churn.ArrivalSpec{Rate: 500, Mix: mix},
					Keyspace: 8,
					Warmup:   true,
				})
				if report.Errors > 0 {
					b.Fatalf("%d request errors", report.Errors)
				}
				if report.HitRate <= 0 {
					b.Fatal("zero cache hit rate in bench smoke")
				}
				b.ReportMetric(report.Throughput, "req/s")
				b.ReportMetric(report.P50Ms, "p50-ms")
				b.ReportMetric(report.P99Ms, "p99-ms")
				b.ReportMetric(report.HitRate, "hit-rate")
			}
		})
	}
}
