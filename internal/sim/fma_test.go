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

// fmaWatched lists, as directory/file, the sources that must compile for
// arm64 without a fused multiply-add: the squared distance, the exact
// decode's interference sum and its pre-pass, and the SINR and affectance
// sums that the first-fit slot groups reproduce bit for bit, the listen
// gate's squared-distance verdicts, the far-field plan's aggregates and
// walks, the transmit powers (params.go, inlined into sinr), the power
// solver's interference sum that sets TVC-arbitrary's powers, and the
// sparsity measure's length classes. Keys hold the directory because a
// file name such as power.go exists in more than one package.
var fmaWatched = map[string]bool{
	"geom/point.go":        true,
	"sim/engine.go":        true,
	"sim/listenrange.go":   true,
	"sim/prune.go":         true,
	"sinr/affectance.go":   true,
	"sinr/group.go":        true,
	"sinr/quadtree.go":     true,
	"phys/params.go":       true,
	"power/power.go":       true,
	"sparsity/sparsity.go": true,
}

// TestNoFusedMultiplyAddArm64 cross-compiles internal/geom, internal/sinr,
// internal/sim, internal/power and internal/sparsity for arm64 and fails
// on any fused multiply-add the compiler attributes to a file in
// fmaWatched. A fused x*y + z rounds once instead of twice, so a fused
// squared distance or interference sum would decode or schedule
// differently on arm64 than on amd64, which never fuses. The explicit
// float64 conversions at those sites forbid the fusion.
func TestNoFusedMultiplyAddArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles five packages for arm64")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	pkgs := []string{"geom", "sinr", "sim", "power", "sparsity"}
	args := []string{"build"}
	for _, p := range pkgs {
		args = append(args, "-gcflags=sinrconn/internal/"+p+"=-S")
	}
	for _, p := range pkgs {
		args = append(args, "sinrconn/internal/"+p)
	}
	cmd := exec.Command(gobin, args...)
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
		file := filepath.Base(filepath.Dir(m[1])) + "/" + filepath.Base(m[1])
		if !fmaWatched[file] {
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
