package lint_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sinrconn/internal/lint/loader"
)

// exportAllowlist is the closed set of exported names under internal/ that
// production code never calls but that stay exported anyway. Each row says
// why. A row whose name no longer exists, or that production now calls,
// fails TestProductionExportsAreUsed, as a stale hotpathGates row does.
var exportAllowlist = map[string]string{
	"internal/faults.MustPlan":        "fault-plan constructor the root, faults, serve and loadgen tests share",
	"internal/workload.UniformSeeded": "seeded point generator the root, serve, sinr, tree and workload tests share",
	"internal/sinr.QuadTree.Levels":   "read by the root BenchmarkQuadtree footprint rows",
	"internal/sinr.QuadTree.Nodes":    "read by the root BenchmarkQuadtree footprint rows",
	"internal/sinr.QuadTree.Theta":    "read by the root BenchmarkQuadtree footprint rows",
}

// exportGateExempt reports whether the package at path is outside the gate:
// the oracle is reference physics that tests compare production against,
// and analysistest is a test harness by design.
func exportGateExempt(path string) bool {
	return path == "sinrconn/internal/oracle" || path == "sinrconn/internal/lint/analysistest"
}

// exportKey names a package-level function or method the way hotpathGates
// rows do: module-relative package path, receiver type, name.
func exportKey(fn *types.Func) string {
	key := strings.TrimPrefix(fn.Pkg().Path(), "sinrconn/") + "."
	if recv := receiverNamed(fn); recv != nil {
		key += recv.Obj().Name() + "."
	}
	return key + fn.Name()
}

// unusedExports returns, sorted, the key of every exported package-level
// function or method declared in a package under internal/ that no package
// in pkgs uses. The loader reads only non-test files, so a use from a test
// does not count. A method is left out when its receiver type implements an
// interface that declares it (String, Error, UnmarshalJSON, ...): such a
// method is called through the interface, which Info.Uses does not see.
// Methods of unexported types are no exports and are skipped. It also
// returns every declared key, which the allowlist check needs.
func unusedExports(pkgs []*loader.Package) (unused []string, declared map[string]bool) {
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	ifaces := interfacesByMethod(pkgs)
	declared = map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "sinrconn/internal/") || exportGateExempt(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				recv := receiverNamed(fn)
				if fn.Type().(*types.Signature).Recv() != nil && (recv == nil || !recv.Obj().Exported()) {
					continue
				}
				key := exportKey(fn)
				declared[key] = true
				if used[fn] || (recv != nil && implementsAny(recv, ifaces[fn.Name()])) {
					continue
				}
				unused = append(unused, key)
			}
		}
	}
	sort.Strings(unused)
	return unused, declared
}

// receiverNamed returns the named receiver type of a method, through one
// pointer, or nil for a plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfacesByMethod indexes, by method name, every interface a method of
// pkgs could be called through: the error type, each named interface in the
// scope of any package the loaded ones import (fmt.Stringer, json.Unmarshaler,
// http.RoundTripper, ...), and each interface literal in the loaded code.
func interfacesByMethod(pkgs []*loader.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementsAny reports whether t or *t implements one of ifaces.
func implementsAny(t *types.Named, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// loadModule type-checks every package of the repository and of the bench
// module. Loading from cmd/bench reaches the root module through its
// replace directive, so one loader sees both, as `sinrlint -C cmd/bench`
// and `sinrlint ./...` do between them.
func loadModule(t *testing.T) []*loader.Package {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ld := loader.New(filepath.Join(root, "cmd", "bench"))
	pkgs, err := ld.Load("./...", "sinrconn/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Fatalf("type checking %s: %v", pkg.Path, e)
		}
	}
	return pkgs
}

// exportFindings runs the gate over pkgs: one message for each unused
// export without an allowlist row, and one for each allowlist row that is
// empty, names no exported function, or names one production calls.
func exportFindings(pkgs []*loader.Package, allow map[string]string) []string {
	unused, declared := unusedExports(pkgs)
	var out []string
	flagged := map[string]bool{}
	for _, key := range unused {
		flagged[key] = true
		if _, ok := allow[key]; !ok {
			out = append(out, key+" is exported but no production code calls it; delete it, move it into the test that uses it, or add an exportAllowlist row with a reason")
		}
	}
	for key, reason := range allow {
		switch {
		case reason == "":
			out = append(out, "exportAllowlist row "+key+" has no reason")
		case !declared[key]:
			out = append(out, "exportAllowlist row "+key+" names no exported function; prune it")
		case !flagged[key]:
			out = append(out, "exportAllowlist row "+key+" is called by production code; prune it")
		}
	}
	sort.Strings(out)
	return out
}

// TestProductionExportsAreUsed is the regrowth gate for test-only code in
// production packages: every exported function or method declared in a
// non-test file under internal/ must be called by non-test code somewhere in
// the repository or the bench module, satisfy an interface, or carry an
// exportAllowlist row. A helper only tests call belongs in the _test.go
// that uses it.
func TestProductionExportsAreUsed(t *testing.T) {
	for _, f := range exportFindings(loadModule(t), exportAllowlist) {
		t.Error(f)
	}
}

// TestExportGateFixture pins the gate on a fixture: of a used export, an
// export only a test calls, an interface method and an allowlisted name, it
// flags only the test-only export; and it flags allowlist rows that are
// stale or no longer needed.
func TestExportGateFixture(t *testing.T) {
	td := testdata(t)
	root := filepath.Join(td, "src")
	ld := loader.New(td)
	var pkgs []*loader.Package
	for _, path := range []string{"sinrconn/internal/exports", "sinrconn/cmd/exportsuser"} {
		pkg, err := ld.LoadDir(filepath.Join(root, filepath.FromSlash(path)), path, root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pkg.TypeErrors {
			t.Fatalf("type checking %s: %v", path, e)
		}
		pkgs = append(pkgs, pkg)
	}
	check := func(allow map[string]string, want ...string) {
		t.Helper()
		got := exportFindings(pkgs, allow)
		if len(got) != len(want) {
			t.Fatalf("findings = %q, want %d", got, len(want))
		}
		for i := range want {
			if !strings.HasPrefix(got[i], want[i]) {
				t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
			}
		}
	}
	check(map[string]string{"internal/exports.Allowed": "fixture seam"},
		"internal/exports.Unused is exported but no production code calls it")
	check(map[string]string{
		"internal/exports.Allowed": "fixture seam",
		"internal/exports.Unused":  "",
		"internal/exports.Gone":    "deleted function",
		"internal/exports.Used":    "now called",
	},
		"exportAllowlist row internal/exports.Gone names no exported function",
		"exportAllowlist row internal/exports.Unused has no reason",
		"exportAllowlist row internal/exports.Used is called by production code")
}
