// Powercompare: one instance, all four pipelines. The table shows the
// paper's central trade-off — construction effort versus final schedule
// quality — across uniform-power construction (Section 6), mean-power
// rescheduling (Section 7), and the two TreeViaCapacity variants
// (Section 8). Run on a high-Δ exponential chain, the regime where power
// choice matters most.
//
//	go run ./examples/powercompare
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"sinrconn"
)

func main() {
	if err := run(os.Stdout, 40, 1.35, 13); err != nil {
		log.Fatal(err)
	}
}

// run compares all four pipelines on an n-point exponential chain with the
// given growth factor.
func run(out io.Writer, n int, base float64, seed int64) error {
	nw, err := sinrconn.Open(expChain(n, base), sinrconn.WithSeed(seed))
	if err != nil {
		return err
	}
	defer nw.Close()
	rows := []struct {
		name     string
		pipeline sinrconn.Pipeline
	}{
		{"Init, uniform power (Sec 6)", sinrconn.PipelineInit},
		{"reschedule, mean power (Sec 7)", sinrconn.PipelineRescheduleMean},
		{"TreeViaCapacity, mean (Sec 8.1)", sinrconn.PipelineTVCMean},
		{"TreeViaCapacity, arbitrary (Sec 8.2)", sinrconn.PipelineTVCArbitrary},
	}

	var delta, upsilon float64
	fmt.Fprintf(out, "%-38s %10s %14s\n", "pipeline", "schedule", "build slots")
	for _, r := range rows {
		res, err := nw.Run(context.Background(), r.pipeline)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		delta, upsilon = res.Metrics.Delta, res.Metrics.Upsilon
		fmt.Fprintf(out, "%-38s %10d %14d\n", r.name, res.Metrics.ScheduleLength, res.Metrics.SlotsUsed)
	}
	fmt.Fprintf(out, "\ninstance: n=%d exponential chain, Δ=%.0f (log₂Δ=%.1f), Υ=%.1f, log₂n=%.1f\n",
		n, delta, math.Log2(delta), upsilon, math.Log2(float64(n)))
	fmt.Fprintln(out, "\nreading the table:")
	fmt.Fprintln(out, " - Section 6 stamps carry the log Δ·log n construction cost into the schedule;")
	fmt.Fprintln(out, " - Section 7 keeps the same tree but re-schedules it with mean power;")
	fmt.Fprintln(out, " - Section 8 rebuilds the tree so the final schedule matches centralized bounds.")
	return nil
}

// expChain builds an n-point exponential chain with growth factor base.
func expChain(n int, base float64) []sinrconn.Point {
	pts := make([]sinrconn.Point, n)
	x, gap := 0.0, 1.0
	for i := range pts {
		pts[i] = sinrconn.Point{X: x}
		x += gap
		gap *= base
	}
	return pts
}
