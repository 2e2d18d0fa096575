package sim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the arm64 fused multiply-add family in the compiler's
// -S listing: FMADDD, FMSUBD, FNMADDD, FNMSUBD, their single-precision
// forms, and the vector VFMLA/VFMLS.
var fusedOp = regexp.MustCompile(`\b(FN?M(ADD|SUB)[DS]|VFML[AS])\b`)

// asmSource matches the "(file.go:line)" position the listing gives each
// instruction.
var asmSource = regexp.MustCompile(`\(([^()\s]+\.go):\d+\)`)

// TestNoFusedMultiplyAddArm64 cross-compiles internal/geom and
// internal/sim for arm64 and fails on any fused multiply-add the compiler
// attributes to geom/point.go or sim/engine.go. A fused x*y + z rounds
// once instead of twice, so a fused squared distance or interference sum
// would decode differently on arm64 than on amd64, which never fuses. The
// explicit float64 conversions at those sites forbid the fusion.
func TestNoFusedMultiplyAddArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles two packages for arm64")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "build",
		"-gcflags=sinrconn/internal/geom=-S", "-gcflags=sinrconn/internal/sim=-S",
		"sinrconn/internal/geom", "sinrconn/internal/sim")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	watched := map[string]int{"point.go": 0, "engine.go": 0}
	for _, line := range strings.Split(string(out), "\n") {
		m := asmSource.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		dir, file := filepath.Base(filepath.Dir(m[1])), filepath.Base(m[1])
		if (dir != "geom" || file != "point.go") && (dir != "sim" || file != "engine.go") {
			continue
		}
		watched[file]++
		if fusedOp.MatchString(line) {
			t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
		}
	}
	for file, n := range watched {
		if n == 0 {
			t.Errorf("the arm64 listing attributes no instruction to %s: the check saw nothing", file)
		}
	}
}
