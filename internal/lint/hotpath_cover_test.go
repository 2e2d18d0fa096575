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
	"internal/sim.Engine.decodeListenerFar": {"TestFarFieldSlotLoopZeroAlloc", "internal/sim/farfield_test.go"},
	"internal/sim.Engine.finishDecode":      {"TestSlotLoopZeroAlloc", "internal/sim/alloc_test.go"},

	"internal/sinr.Instance.SINRFeasibleBuf":    {"TestSINRFeasibleBufZeroAlloc", "internal/sinr/alloc_test.go"},
	"internal/sinr.Instance.SINRFeasibleFarBuf": {"TestSINRFeasibleFarBufZeroAlloc", "internal/sinr/alloc_test.go"},
	"internal/sinr.FarField.Accumulate":         {"TestFarFieldSlotLoopZeroAlloc", "internal/sim/farfield_test.go"},
	"internal/sinr.FarField.Resolve":            {"TestFarFieldSlotLoopZeroAlloc", "internal/sim/farfield_test.go"},
	"internal/sinr.FarField.LinkSINR":           {"TestSINRFeasibleFarBufZeroAlloc", "internal/sinr/alloc_test.go"},
	"internal/sinr.QuadScratch.Accumulate":      {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sinr.QuadScratch.Resolve":         {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sinr.QuadScratch.LinkSINR":        {"TestSINRFeasibleFarBufZeroAlloc", "internal/sinr/alloc_test.go"},

	// PR 9: sharded accumulate, listener batching, and the f32 walk.
	"internal/sinr.QuadScratch.AccumBegin":    {"TestShardedAccumulateZeroAlloc", "internal/sinr/quadtree_shard_test.go"},
	"internal/sinr.QuadScratch.AccumShard":    {"TestShardedAccumulateZeroAlloc", "internal/sinr/quadtree_shard_test.go"},
	"internal/sinr.QuadScratch.AccumFinish":   {"TestShardedAccumulateZeroAlloc", "internal/sinr/quadtree_shard_test.go"},
	"internal/sinr.QuadScratch.round32Shard":  {"TestShardedAccumulateZeroAlloc", "internal/sinr/quadtree_shard_test.go"},
	"internal/sinr.QuadScratch.round32Finish": {"TestShardedAccumulateZeroAlloc", "internal/sinr/quadtree_shard_test.go"},
	"internal/sinr.QuadScratch.ResolveBatch":  {"TestResolveBatchZeroAlloc", "internal/sinr/quadtree_batch_test.go"},
	"internal/sinr.QuadScratch.resolveChunk":  {"TestResolveBatchZeroAlloc", "internal/sinr/quadtree_batch_test.go"},
	"internal/sinr.QuadScratch.soloTail":      {"TestResolveBatchZeroAlloc", "internal/sinr/quadtree_batch_test.go"},
	"internal/sinr.QuadScratch.round32Active": {"TestFloat32ResolverZeroAlloc", "internal/sinr/quadtree_f32_test.go"},
	"internal/sinr.QuadScratch.resolve32":     {"TestFloat32ResolverZeroAlloc", "internal/sinr/quadtree_f32_test.go"},
	"internal/sinr.QuadScratch.linkSINR32":    {"TestFloat32ResolverZeroAlloc", "internal/sinr/quadtree_f32_test.go"},

	"internal/sim.farSink.DeliverFar":         {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sim.Engine.buildFarRuns":        {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
	"internal/sim.Engine.decodeFarBatchRange": {"TestQuadtreeSlotLoopZeroAlloc", "internal/sim/adaptive_test.go"},
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
