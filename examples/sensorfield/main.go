// Sensorfield: a wireless sensor network scenario (the paper's motivating
// use case). Sensors are deployed in clustered pockets across a field; the
// bi-tree doubles as the data-aggregation structure. We aggregate a max
// temperature reading up the converge-cast tree, slot by slot, following
// the computed schedule — and confirm the sink learns the true maximum in
// exactly the promised number of slots.
//
//	go run ./examples/sensorfield
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
	if err := run(os.Stdout, 80, 5, 7, 60, 3); err != nil {
		log.Fatal(err)
	}
}

// run deploys n sensors in k pockets of the given radius on a span×span
// field, builds the aggregation tree, and executes one physical epoch.
// seed drives the protocol randomness only; the deployment seed is fixed
// so the example's field (and narrative output) stays stable across seeds.
func run(out io.Writer, n, k int, radius, span float64, seed int64) error {
	rng := rand.New(rand.NewSource(11))
	pts := clusteredField(rng, n, k, radius, span)

	nw, err := sinrconn.Open(pts, sinrconn.WithSeed(seed))
	if err != nil {
		return err
	}
	defer nw.Close()
	ctx := context.Background()
	res, err := nw.Run(ctx, sinrconn.PipelineTVCMean)
	if err != nil {
		return err
	}
	if err := res.Tree.Verify(); err != nil {
		return err
	}
	m := res.Metrics
	fmt.Fprintf(out, "sensor field: %d sensors in %d pockets, Δ=%.1f\n", len(pts), k, m.Delta)
	fmt.Fprintf(out, "aggregation tree: root (sink) = node %d, %d slots/epoch, built in %d channel slots\n",
		res.Tree.Root, m.ScheduleLength, m.SlotsUsed)

	// Synthetic readings: a hotspot near the first pocket.
	readings := make([]float64, len(pts))
	trueMax := math.Inf(-1)
	for i, p := range pts {
		readings[i] = 15 + 10*math.Exp(-(p.X*p.X+p.Y*p.Y)/800) + rng.Float64()*2
		if readings[i] > trueMax {
			trueMax = readings[i]
		}
	}

	// Execute one epoch physically on the SINR channel: every link
	// transmits its running max in its scheduled slot at its stamped
	// power. Fixed-point centi-degrees ride in the message payload.
	values := make([]int64, len(pts))
	for i, r := range readings {
		values[i] = int64(math.Round(r * 100))
	}
	outcome, err := nw.Aggregate(ctx, res, values, sinrconn.MaxAgg)
	if err != nil {
		return fmt.Errorf("epoch failed on the channel: %w", err)
	}
	sinkMax := float64(outcome.Value) / 100
	fmt.Fprintf(out, "physical epoch: sink read max=%.2f°C (true max %.2f°C) in %d channel slots\n",
		sinkMax, trueMax, outcome.SlotsUsed)
	fmt.Fprintf(out, "energy spent this epoch: %.3g; converge-cast latency metric: %d slots\n",
		outcome.Energy, m.AggregationLatency)
	if math.Abs(sinkMax-trueMax) > 0.01 {
		return fmt.Errorf("aggregation lost the maximum — schedule violation")
	}
	return nil
}

// clusteredField places n sensors in k pockets of the given radius on a
// span×span field, minimum pairwise distance 1.
func clusteredField(rng *rand.Rand, n, k int, radius, span float64) []sinrconn.Point {
	centers := make([]sinrconn.Point, k)
	for i := range centers {
		centers[i] = sinrconn.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
	}
	var pts []sinrconn.Point
	fails := 0
	for len(pts) < n {
		c := centers[rng.Intn(k)]
		ang := rng.Float64() * 2 * math.Pi
		rad := math.Sqrt(rng.Float64()) * radius
		cand := sinrconn.Point{X: c.X + rad*math.Cos(ang), Y: c.Y + rad*math.Sin(ang)}
		ok := true
		for _, p := range pts {
			if math.Hypot(p.X-cand.X, p.Y-cand.Y) < 1 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, cand)
			fails = 0
		} else if fails++; fails > 5000 {
			radius *= 1.3
			fails = 0
		}
	}
	return pts
}
