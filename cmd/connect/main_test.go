package main

import (
	"strings"
	"testing"
)

func TestRunPipelines(t *testing.T) {
	for _, pipeline := range []string{"init", "reschedule", "mean", "arbitrary"} {
		t.Run(pipeline, func(t *testing.T) {
			var b strings.Builder
			err := run([]string{"-n", "24", "-pipeline", pipeline, "-seed", "2"}, &b)
			if err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "schedule=") || !strings.Contains(out, "root=") {
				t.Errorf("missing summary in output:\n%s", out)
			}
			if pipeline != "reschedule" && !strings.Contains(out, "verification") {
				t.Errorf("missing verification line:\n%s", out)
			}
		})
	}
}

func TestRunWorkloads(t *testing.T) {
	for _, wl := range []string{"uniform", "clusters", "grid", "chain", "gaussians", "annulus", "powerlaw", "city"} {
		t.Run(wl, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-n", "20", "-workload", wl, "-pipeline", "init"}, &b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunVerbose(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "16", "-pipeline", "init", "-v"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "slot ") {
		t.Errorf("verbose output missing link lines:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-pipeline", "bogus"}, &b); err == nil {
		t.Error("bogus pipeline accepted")
	}
	if err := run([]string{"-workload", "bogus"}, &b); err == nil {
		t.Error("bogus workload accepted")
	}
	if err := run([]string{"-badflag"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
	// The far-field mode flag is gone: ε alone selects the engine.
	if err := run([]string{"-n", "16", "-maxrelerr", "0.5", "-farmode", "quadtree"}, &b); err == nil {
		t.Error("removed -farmode flag accepted")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, wl := range []string{"uniform", "clusters", "grid", "chain", "gaussians", "annulus", "powerlaw", "city"} {
		pts, err := generate(wl, 25, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 25 {
			t.Errorf("%s: %d points", wl, len(pts))
		}
	}
	if _, err := generate("bogus", 10, 1); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestRunChurn(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-n", "32", "-seed", "3",
		"-churn", "events=20,join=1,fail=1.2,burst=0.3,shower=0.4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"churn:", "incremental=", "final:"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurnMobility(t *testing.T) {
	for _, model := range []string{"waypoint", "citygrid"} {
		t.Run(model, func(t *testing.T) {
			var b strings.Builder
			err := run([]string{"-n", "28", "-seed", "4",
				"-churn", "events=15,fail=0.8,move=1.5", "-mobility", model}, &b)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), "moves=") {
				t.Errorf("mobility churn summary missing moves:\n%s", b.String())
			}
		})
	}
}

func TestRunChurnErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-churn", "events=10"}, &b); err == nil {
		t.Error("all-zero rate churn spec accepted")
	}
	if err := run([]string{"-churn", "events=10,fail=1", "-sweep", "2"}, &b); err == nil {
		t.Error("-churn with -sweep accepted")
	}
	if err := run([]string{"-churn", "events=10,fail=1", "-pipeline", "init"}, &b); err == nil {
		t.Error("-churn with explicit -pipeline accepted")
	}
	if err := run([]string{"-churn", "events=10,bogus=1"}, &b); err == nil {
		t.Error("unknown churn spec key accepted")
	}
	if err := run([]string{"-churn", "nonsense"}, &b); err == nil {
		t.Error("malformed churn spec accepted")
	}
	if err := run([]string{"-churn", "events=10,move=1"}, &b); err == nil {
		t.Error("move rate without -mobility accepted")
	}
	if err := run([]string{"-churn", "events=10,fail=1", "-mobility", "bogus"}, &b); err == nil {
		t.Error("bogus mobility model accepted")
	}
	if err := run([]string{"-mobility", "waypoint"}, &b); err == nil {
		t.Error("-mobility without -churn accepted")
	}
}
