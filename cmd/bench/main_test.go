package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// specPath is BENCHMARK.json at the root of the repository.
const specPath = "../../BENCHMARK.json"

// toyWorkloads are the benchmark's workloads shrunk to toy size: the same
// code paths in well under a second each.
func toyWorkloads() []benchWorkload {
	all := workloads()
	for _, w := range all {
		switch w := w.(type) {
		case *netWorkload:
			w.n, w.countOps = 128, 1
			if w.events > 0 {
				w.n, w.events = 96, 4
			}
		case *serveWorkload:
			w.n, w.keys, w.writeN, w.writeShare = 64, 4, 16, 0.05
		}
	}
	return all
}

// metricKeys returns the keys of the result line's metrics object in
// order, duplicates kept, with their units.
func metricKeys(t *testing.T, line string) ([]string, []string) {
	t.Helper()
	var res struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	dec := json.NewDecoder(bytes.NewReader(res.Metrics))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var names, units []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v struct{ Unit string }
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		names = append(names, tok.(string))
		units = append(units, v.Unit)
	}
	return names, units
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks the output contract against BENCHMARK.json: every declared
// metric of the run's mode exactly once with its declared unit, nothing
// undeclared, no failed operation, and no end-to-end metric reading 0.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name())
	}
	if fmt.Sprint(names) != fmt.Sprint(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	for _, w := range toyWorkloads() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name()+"/trace="+trace, func(t *testing.T) {
				secs := "0.05"
				if _, ok := w.(*serveWorkload); ok {
					secs = "0.5"
				}
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name(), "--seed", "3", "--seconds", secs, "--trace", trace}
				if code := run(args, []benchWorkload{w}, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				last := lines[len(lines)-1]
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line %q: %v", last, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d attempted, %d failed: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}

				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				got, units := metricKeys(t, last)
				count := map[string]int{}
				unit := map[string]string{}
				for i, name := range got {
					count[name]++
					unit[name] = units[i]
				}
				for _, m := range want {
					if count[m.Name] != 1 || unit[m.Name] != m.Unit {
						t.Errorf("%s: emitted %d times with unit %q, want once with %q", m.Name, count[m.Name], unit[m.Name], m.Unit)
					}
					delete(count, m.Name)
				}
				for name := range count {
					t.Errorf("%s: emitted but not declared", name)
				}
				if trace == "0" {
					for _, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCompare checks --compare end to end on two synthetic run files.
func TestCompare(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(opMs ...float64) *runFile {
		f := &runFile{}
		for i, v := range opMs {
			var ms metricList
			for _, m := range spec.EndToEnd {
				ms = append(ms, metric{m.Name, 100, m.Unit})
			}
			for j := range ms {
				if ms[j].Name == "op_ms" {
					ms[j].Value = v
				}
			}
			f.Runs = append(f.Runs, record{Workload: "churn-1k", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: ms}})
		}
		return f
	}
	parent := runs(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name    string
		change  *runFile
		pass    bool
		verdict string
	}{
		{"unchanged", runs(100, 100, 101, 99, 100), true, verdictOK},
		{"slower", runs(130, 131, 129, 130, 130), false, verdictRegression},
		{"noisy", runs(50, 150, 100, 70, 130), false, verdictUnresolved},
		{"faster", runs(50, 51, 49, 50, 50), true, verdictBetter},
	} {
		var out bytes.Buffer
		if pass := compare(spec, parent, c.change, &out); pass != c.pass {
			t.Errorf("%s: compare passed = %v, want %v\n%s", c.name, pass, c.pass, out.String())
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, " op_ms ") {
				row = l
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), c.verdict) {
			t.Errorf("%s: op_ms row %q, want verdict %s", c.name, row, c.verdict)
		}
	}
}
