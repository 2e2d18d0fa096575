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

// fmaWatched lists, by directory and file, the sources that must compile
// for arm64 without a fused multiply-add: the squared distance, the exact
// decode's interference sum, and the SINR and affectance sums that the
// first-fit slot groups reproduce bit for bit, and the listen gate's
// squared-distance verdicts.
var fmaWatched = map[string]string{
	"point.go":       "geom",
	"engine.go":      "sim",
	"listenrange.go": "sim",
	"affectance.go":  "sinr",
	"group.go":       "sinr",
}

// TestNoFusedMultiplyAddArm64 cross-compiles internal/geom, internal/sinr
// and internal/sim for arm64 and fails on any fused multiply-add the
// compiler attributes to a file in fmaWatched. A fused x*y + z rounds once
// instead of twice, so a fused squared distance or interference sum would
// decode or schedule differently on arm64 than on amd64, which never
// fuses. The explicit float64 conversions at those sites forbid the
// fusion.
func TestNoFusedMultiplyAddArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles three packages for arm64")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "build",
		"-gcflags=sinrconn/internal/geom=-S", "-gcflags=sinrconn/internal/sinr=-S", "-gcflags=sinrconn/internal/sim=-S",
		"sinrconn/internal/geom", "sinrconn/internal/sinr", "sinrconn/internal/sim")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(string(out), "\n") {
		m := asmSource.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		dir, file := filepath.Base(filepath.Dir(m[1])), filepath.Base(m[1])
		if fmaWatched[file] != dir {
			continue
		}
		seen[file]++
		if fusedOp.MatchString(line) {
			t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
		}
	}
	for file := range fmaWatched {
		if seen[file] == 0 {
			t.Errorf("the arm64 listing attributes no instruction to %s: the check saw nothing", file)
		}
	}
}
