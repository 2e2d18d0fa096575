package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sinrconn/internal/lint"
)

// hotpathGate names the runtime AllocsPerRun test that pins one annotated
// function's steady-state allocation count to zero.
type hotpathGate struct {
	test string // test function name
	file string // module-relative file holding it
}

// hotpathGates is the hand-maintained coverage table: every //sinr:hotpath
// annotation in the repo must map to a live zero-alloc gate, and every row
// here must correspond to an annotation that still exists. Adding an
// annotation without a gate — or deleting a hot function without pruning
// its row — fails TestHotpathAnnotationsHaveAllocGates.
var hotpathGates = map[string]hotpathGate{
	"internal/sim.Engine.Step":              {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.stepRange":         {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.decodeRange":       {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.decodeExact":       {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.decodeListenerFar": {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sim.Engine.finishDecode":      {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.saturated":         {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	// Addressed listening: the address gate.
	"internal/sim.Engine.gateAddressed": {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	// Listen ranges: the listener gate and its per-range cell grid.
	"internal/sim.Engine.readyGate":     {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.gateListeners": {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.heard":         {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.nearSender":    {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.listenGate.bucket":    {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.listenGate.hears":     {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.listenGate.inRange":   {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	// The exact decode's pre-pass: the sender grid and the walk.
	"internal/sim.Engine.prunes":      {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.senderGrid.bucket":  {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.walk.read":          {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.settle":      {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.unreadBound": {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.drowned":     {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	// Held actions: held listeners joining a slot and waking.
	"internal/sim.Engine.listenHeld": {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},
	"internal/sim.Engine.wake":       {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	"internal/sinr.Instance.SINRFeasibleBuf":    {"TestSINRFeasibleBufZeroAlloc", "internal/sinr/alloc_test.go"},
	"internal/sinr.Instance.SINRFeasibleFarBuf": {"TestSINRFeasibleFarBufZeroAlloc", "internal/sinr/alloc_test.go"},
	"internal/sinr.QuadScratch.Accumulate":      {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sinr.QuadScratch.Resolve":         {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sinr.QuadScratch.LinkSINR":        {"TestSINRFeasibleFarBufZeroAlloc", "internal/sinr/alloc_test.go"},

	// Per-node streams: the lazy draws before the register exists.
	"internal/sim.NodeRand.int63":   {"TestNodeRandLazy", "internal/sim/noderand_test.go"},
	"internal/sim.NodeRand.Float64": {"TestNodeRandLazy", "internal/sim/noderand_test.go"},
	"internal/sim.NodeRand.Intn":    {"TestNodeRandLazy", "internal/sim/noderand_test.go"},
}

// scanAnnotations walks the module (skipping testdata and test files) and
// returns the key of every function annotated //sinr:hotpath.
func scanAnnotations(t *testing.T, root string) map[string]bool {
	t.Helper()
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == lint.HotPathAnnotation {
					annotated = true
				}
			}
			if !annotated {
				continue
			}
			key := filepath.ToSlash(rel) + "." + recvName(fn) + fn.Name.Name
			found[key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

// TestHotpathAnnotationsHaveAllocGates keeps the static annotation set and
// the runtime zero-alloc gates in lockstep, in both directions, and checks
// each named gate is a real AllocsPerRun test in the file the table claims.
func TestHotpathAnnotationsHaveAllocGates(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	annotations := scanAnnotations(t, root)
	for key := range annotations {
		if _, ok := hotpathGates[key]; !ok {
			t.Errorf("//sinr:hotpath on %s has no zero-alloc gate; add a row to hotpathGates and an AllocsPerRun test", key)
		}
	}
	for key := range hotpathGates {
		if !annotations[key] {
			t.Errorf("hotpathGates row %s matches no //sinr:hotpath annotation; prune it or restore the annotation", key)
		}
	}
	checked := map[string]bool{}
	for key, gate := range hotpathGates {
		id := gate.file + ":" + gate.test
		if checked[id] {
			continue
		}
		checked[id] = true
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(gate.file)))
		if err != nil {
			t.Errorf("gate file for %s: %v", key, err)
			continue
		}
		text := string(src)
		if !strings.Contains(text, "func "+gate.test+"(") {
			t.Errorf("gate %s not found in %s", gate.test, gate.file)
		}
		if !strings.Contains(text, "AllocsPerRun") {
			t.Errorf("gate file %s has no AllocsPerRun check", gate.file)
		}
	}
}
