package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sinrconn/internal/experiments"
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
	for _, id := range []string{"E16", "E17"} {
		var b strings.Builder
		if err := run([]string{"-quick", "-only", id}, &b); err == nil {
			t.Errorf("-only %s (a retired experiment) succeeded:\n%s", id, b.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nope"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}

// testBacked lists the Tables rows of EXPERIMENTS.md that tests back
// instead of a registry experiment.
var testBacked = map[string]bool{
	"E21": true, // the chaos soak and fault-free replay of internal/serve
}

// TestExperimentsDocMatchesRegistry checks the Tables section of
// EXPERIMENTS.md against experiments.Registry(). Every registered ID has
// exactly one row, and that row is not retired; every other row is
// retired or test-backed. The E rows run from E1 to the highest without a
// gap, so a retired ID keeps its row and is never reused. A retired ID
// appears nowhere else in the document, so no prose still describes it as
// a live table.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	_, tables, ok := strings.Cut(doc, "\n## Tables\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Tables section")
	}
	tables, _, _ = strings.Cut(tables, "\n## ")
	rows := map[string]string{} // ID → claim cell
	maxE := 0
	for _, line := range strings.Split(tables, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		id := strings.TrimSpace(cells[1])
		if id == "Table" || strings.HasPrefix(id, "---") {
			continue
		}
		if _, dup := rows[id]; dup {
			t.Errorf("two Tables rows for %s", id)
		}
		rows[id] = strings.TrimSpace(cells[2])
		if k, err := strconv.Atoi(strings.TrimPrefix(id, "E")); err == nil && strings.HasPrefix(id, "E") {
			maxE = max(maxE, k)
		}
	}
	const retired = "*Retired*"
	registered := map[string]bool{}
	for _, e := range experiments.Registry() {
		registered[e.ID] = true
		switch claim, ok := rows[e.ID]; {
		case !ok:
			t.Errorf("%s is registered but has no Tables row", e.ID)
		case strings.HasPrefix(claim, retired):
			t.Errorf("%s is registered but its Tables row is retired", e.ID)
		}
	}
	for k := 1; k <= maxE; k++ {
		if _, ok := rows[fmt.Sprintf("E%d", k)]; !ok {
			t.Errorf("no Tables row for E%d: a retired ID keeps its row", k)
		}
	}
	for id, claim := range rows {
		if !strings.HasPrefix(claim, retired) {
			if !registered[id] && !testBacked[id] {
				t.Errorf("%s has a live Tables row but no registry experiment", id)
			}
			continue
		}
		if n := len(regexp.MustCompile(`\b`+id+`\b`).FindAllStringIndex(doc, -1)); n != 1 {
			t.Errorf("retired %s appears %d times in EXPERIMENTS.md, want only on its Tables row", id, n)
		}
	}
}
