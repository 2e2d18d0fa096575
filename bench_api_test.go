package sinrconn_test

// BenchmarkNetworkReuse quantifies the session API's amortization: an
// open Network pays geometry validation, Δ computation, and the O(n²) gain
// table once. Two measurements per size:
//
//	reuse-fresh — Run with a fresh seed per op on a warm handle
//	              (construction only; the instance is amortized)
//	reuse-memo  — Run repeating one spec on a warm handle (the "second
//	              run" of an identical query: served from the memo, no
//	              construction at all)
//
// BENCH_api.json records the headline numbers.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sinrconn"

	"sinrconn/internal/workload"
)

func apiBenchPoints(n int) []sinrconn.Point {
	rng := rand.New(rand.NewSource(int64(n) * 7))
	g := workload.UniformDensity(rng, n, 0.15)
	pts := make([]sinrconn.Point, len(g))
	for i, p := range g {
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts
}

func BenchmarkNetworkReuse(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{256, 1024, 4096} {
		pts := apiBenchPoints(n)
		b.Run(fmt.Sprintf("reuse-fresh/n=%d", n), func(b *testing.B) {
			nw, err := sinrconn.Open(pts, sinrconn.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			if _, err := nw.Run(ctx, sinrconn.PipelineInit); err != nil {
				b.Fatal(err) // warm the instance outside the timer
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(int64(i)+2)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reuse-memo/n=%d", n), func(b *testing.B) {
			nw, err := sinrconn.Open(pts, sinrconn.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			if _, err := nw.Run(ctx, sinrconn.PipelineInit); err != nil {
				b.Fatal(err) // first run pays the construction
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Run(ctx, sinrconn.PipelineInit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
