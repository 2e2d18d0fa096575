// Command bench is the repository's benchmark: five workloads, each timing
// what a user of sinrconn waits for — constructing and verifying bi-trees,
// repairing one under churn, asking the serving daemon for answers over
// TCP — and checking every output it times.
//
// Run it from the root of a checkout:
//
//	bash cmd/bench/run.sh                              # every workload once
//	bash cmd/bench/run.sh --workload churn-1k --seed 3  # one workload
//	bash cmd/bench/run.sh --workload serve-tcp --trace 1
//	bash cmd/bench/run.sh --runs 5 --json runs.json     # five seeds each
//	bash cmd/bench/run.sh --compare parent.json change.json
//
// The workloads (README.md gives the reason for each):
//
//   - init-exact-4k: the Section 6 and Section 7 pipelines at n = 4096 under
//     exact physics, where decoding from the gain table does the work.
//   - tvc-exact-1k: both Section 8 pipelines at n = 1024, tens of thousands
//     of sparse slots whose fixed per-slot cost dominates.
//   - init-far-16k: the Section 6 pipeline at n = 16384 under far-field
//     physics, the only workload running the quadtree engine.
//   - churn-1k: churn traces at n = 1024, repairing instead of constructing.
//   - serve-tcp: the daemon over a real socket, 99% cached reads and 1%
//     session opens and closes, from one closed-loop client.
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) re-runs the workload with a slot observer and reports the
// per-layer metrics. BENCHMARK.json declares both sets with their units,
// directions and regression bounds; --compare applies those bounds to two
// files written by --json. A run prints its metrics as a table and then, as
// its last line, one JSON object: correct, attempted, failed and metrics.
//
// cmd/bench is a module of its own, so the repository's go test ./... does
// not reach it; run its tests from this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"sinrconn"
)

// defaultSeconds is the measured time of one run (run_seconds in
// BENCHMARK.json).
const defaultSeconds = 20

// benchWorkload is one workload: a run sets it up, measures it for the
// run's budget and records metrics and failures in rep.
type benchWorkload interface {
	Name() string
	run(rc runConfig, rep *report) error
}

// workloads returns the benchmark's workloads at their measured sizes.
func workloads() []benchWorkload {
	return []benchWorkload{
		&netWorkload{
			name:      "init-exact-4k",
			n:         4096,
			pipelines: []sinrconn.Pipeline{sinrconn.PipelineInit, sinrconn.PipelineRescheduleMean},
			countOps:  4,
		},
		&netWorkload{
			name:      "tvc-exact-1k",
			n:         1024,
			pipelines: []sinrconn.Pipeline{sinrconn.PipelineTVCMean, sinrconn.PipelineTVCArbitrary},
			countOps:  2,
		},
		&netWorkload{
			name:      "init-far-16k",
			n:         16384,
			maxRelErr: 1.0,
			pipelines: []sinrconn.Pipeline{sinrconn.PipelineInit},
			countOps:  2,
		},
		&netWorkload{name: "churn-1k", n: 1024, events: 64, countOps: 10},
		&serveWorkload{name: "serve-tcp", n: 256, keys: 16, writeN: 64, writeShare: 0.01},
	}
}

func main() {
	os.Exit(run(os.Args[1:], workloads(), os.Stdout, os.Stderr))
}

// run is the command with its arguments, workloads and output streams. It
// returns the exit code.
func run(args []string, all []benchWorkload, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "workload seed; run k of --runs uses seed+k")
	secs := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: a traced run, reporting the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload")
	jsonPath := fs.String("json", "", "also write every run, with the environment, to this file")
	cmp := fs.Bool("compare", false, "compare two --json files: --compare parent.json change.json")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration --compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(*specPath, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: want --trace 0 or 1, --seconds > 0, --runs ≥ 1 and no arguments")
		return 2
	}
	selected := all
	if *name != "" {
		selected = nil
		for _, w := range all {
			if w.Name() == *name {
				selected = []benchWorkload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}

	var file runFile
	code := 0
	for _, w := range selected {
		for k := 0; k < *runs; k++ {
			rc := runConfig{seed: *seed + int64(k), budget: time.Duration(*secs * float64(time.Second)), trace: *trace == 1}
			rep := &report{values: map[string]float64{}, log: stderr}
			err := w.run(rc, rep)
			var res result
			if err == nil {
				res, err = rep.finish(rc.trace)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.Name(), rc.seed, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			rec := record{Workload: w.Name(), Seed: rc.seed, Trace: rc.trace, result: res}
			if err := printRun(stdout, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	if *jsonPath != "" {
		file.Env = currentEnvironment()
		if err := writeJSON(*jsonPath, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// printRun prints a run's metrics as a table and then its result line.
func printRun(w io.Writer, rec record) error {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d %s: correct %v, %d attempted, %d failed\n",
		rec.Workload, rec.Seed, mode, rec.Correct, rec.Attempted, rec.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range rec.Metrics {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, m.Value, m.Unit)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func compareMain(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: --compare takes two --json files: parent, then change")
		return 2
	}
	spec, err := readSpec(specPath)
	var a, b *runFile
	if err == nil {
		a, err = readRuns(files[0])
	}
	if err == nil {
		b, err = readRuns(files[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "parent: %s (%d runs)\nchange: %s (%d runs)\n", a.Env.Commit, len(a.Runs), b.Env.Commit, len(b.Runs))
	if !compare(spec, a, b, stdout) {
		fmt.Fprintln(stdout, "bench: some pair regressed or is unresolved")
		return 1
	}
	return 0
}
