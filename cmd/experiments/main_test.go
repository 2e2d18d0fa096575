package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-only", "E3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "PASS") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "E1 —") {
		t.Error("-only leaked other experiments")
	}
}

func TestRunSingleAblation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-only", "A4"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "A4") {
		t.Errorf("missing A4 output:\n%s", b.String())
	}
}

func TestRunSeedsOverride(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-seeds", "1", "-only", "E4"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-only", "E16"}, &b); err == nil {
		t.Errorf("-only E16 (no such experiment) succeeded:\n%s", b.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nope"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}
