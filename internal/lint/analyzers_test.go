package lint_test

import (
	"path/filepath"
	"testing"

	"sinrconn/internal/lint"
	"sinrconn/internal/lint/analysis"
	"sinrconn/internal/lint/analysistest"
)

func testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestOraclePurity(t *testing.T) {
	analysistest.Run(t, testdata(t), lint.OraclePurity, "sinrconn/internal/oracle")
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, testdata(t), lint.HotPathAlloc, "hotpath")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, testdata(t), lint.Determinism, "sinrconn/internal/churn")
}

func TestCtxDiscipline(t *testing.T) {
	analysistest.Run(t, testdata(t), lint.CtxDiscipline,
		"sinrconn/internal/widget",
		"sinrconn/cmd/tool", // main package: exempt, zero findings expected
	)
}

func TestErrDiscipline(t *testing.T) {
	analysistest.Run(t, testdata(t), lint.ErrDiscipline, "errdemo")
}

// TestFaultsFixture runs determinism and ctxdiscipline together over the
// faults fixture: the injection framework lives in the replay-deterministic
// set AND is an ordinary library under the context rules, and the fixture
// pins findings from both on one file.
func TestFaultsFixture(t *testing.T) {
	analysistest.RunAll(t, testdata(t),
		[]*analysis.Analyzer{lint.Determinism, lint.CtxDiscipline},
		"sinrconn/internal/faults",
	)
}
