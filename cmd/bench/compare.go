package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// environment records where a set of runs was measured.
type environment struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func currentEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			env.Commit += "+modified"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// record is one run in a -json file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// runFile is the content of a -json file.
type runFile struct {
	Env  environment `json:"env"`
	Runs []record    `json:"runs"`
}

func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// boundSpec is an end-to-end metric's declaration in BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare applies the bounds of spec to every (workload, end-to-end
// metric) pair of the untraced runs in a (the parent) and b (the change),
// prints one row per pair, and reports whether every pair is ok or
// better. A workload whose change runs fail more operations than its
// parent runs is a regression too.
func compare(spec *benchSpec, a, b *runFile, out io.Writer) bool {
	values := func(f *runFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == metric {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	failed := func(f *runFile, workload string) (n int) {
		for _, r := range f.Runs {
			if r.Workload == workload {
				n += r.Failed
			}
		}
		return n
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1 q3]\tchange median [q1 q3]\tchange\tbound\tverdict")
	pass := true
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			v := boundCheck(xa, xb, m.Bound, m.Better == "higher")
			pass = pass && (v == verdictOK || v == verdictBetter)
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g %.4g] (n=%d)\t%.4g [%.4g %.4g] (n=%d)\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, a2, a1, a3, len(xa), b2, b1, b3, len(xb), 100*ratio(b2-a2, a2), 100*m.Bound, v)
		}
		if fa, fb := failed(a, wl.Name), failed(b, wl.Name); fb > fa {
			pass = false
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t\t%s\n", wl.Name, fa, fb, verdictRegression)
		}
	}
	tw.Flush()
	return pass
}
