package experiments

import (
	"strings"
	"testing"
)

// Each experiment runs in Quick mode and must (a) produce a table with rows
// and (b) pass its own shape check. The shape checks are the substantive
// assertions — they encode the paper's claims.

func runAndCheck(t *testing.T, rep Report, wantRows int) {
	t.Helper()
	// The rendered table is a header line, a rule, then one line per row.
	if rows := strings.Count(rep.Table.Render(), "\n") - 2; rows < wantRows {
		t.Fatalf("%s: %d rows, want ≥ %d", rep.ID, rows, wantRows)
	}
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "ERROR") {
			t.Fatalf("%s: %s", rep.ID, n)
		}
	}
	if !rep.Pass {
		t.Errorf("%s shape check failed:\n%s", rep.ID, rep.Render())
	}
	out := rep.Render()
	if !strings.Contains(out, rep.ID) || !strings.Contains(out, "Claim:") {
		t.Errorf("%s: malformed render", rep.ID)
	}
}

func TestE1InitSlots(t *testing.T) {
	runAndCheck(t, E1InitSlots(t.Context(), Quick()), 3)
}

func TestE3DegreeTail(t *testing.T) {
	runAndCheck(t, E3DegreeTail(t.Context(), Quick()), 2)
}

func TestE4Sparsity(t *testing.T) {
	runAndCheck(t, E4Sparsity(t.Context(), Quick()), 2)
}

func TestE5LowDegreeFilter(t *testing.T) {
	runAndCheck(t, E5LowDegreeFilter(t.Context(), Quick()), 2)
}

func TestE6MeanReschedule(t *testing.T) {
	runAndCheck(t, E6MeanReschedule(t.Context(), Quick()), 2)
}

func TestE7Iterations(t *testing.T) {
	runAndCheck(t, E7Iterations(t.Context(), Quick()), 2)
}

func TestE8ArbitraryPower(t *testing.T) {
	runAndCheck(t, E8ArbitraryPower(t.Context(), Quick()), 2)
}

func TestE9MeanPower(t *testing.T) {
	runAndCheck(t, E9MeanPower(t.Context(), Quick()), 2)
}

func TestE10Crossover(t *testing.T) {
	runAndCheck(t, E10Crossover(t.Context(), Quick()), 2)
}

func TestE11Latency(t *testing.T) {
	runAndCheck(t, E11Latency(t.Context(), Quick()), 2)
}

func TestE12CapacityRatio(t *testing.T) {
	runAndCheck(t, E12CapacityRatio(t.Context(), Quick()), 2)
}

func TestQuickConfig(t *testing.T) {
	q := Quick()
	if q.Seeds < 1 || len(q.Sizes) == 0 {
		t.Errorf("Quick = %+v", q)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Seeds != 3 || len(c.Sizes) != 4 || len(c.DeltaExps) != 4 || c.ChainN != 48 {
		t.Errorf("defaults = %+v", c)
	}
}
