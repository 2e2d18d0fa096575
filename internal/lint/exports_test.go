package lint_test

import (
	"go/ast"
	"go/token"
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
	"internal/faults.MustPlan":                    "fault-plan constructor the root, faults and serve tests share",
	"internal/workload.UniformSeeded":             "seeded point generator the root, serve, sinr, tree and workload tests share",
	"internal/sinr.QuadTree.Levels":               "read by the root BenchmarkQuadtree footprint rows",
	"internal/sinr.QuadTree.Nodes":                "read by the root BenchmarkQuadtree footprint rows",
	"internal/sinr.QuadTree.Theta":                "read by the root BenchmarkQuadtree footprint rows",
	"internal/sinr.QuadTree.CertifiedMaxRelError": "the certified bound that the root TestQuadtreeMeasuredError, sim's TestQuadtreeEngineMatchesExactDeliveries and the sinr quadtree tests hold measured SINR error to",
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

// gateText words one gate's findings: the allowlist's name, the advice
// appended to a flagged key, what a row must name, and what makes a row
// needless.
type gateText struct {
	table, flagged, noun, used string
}

// gateFindings reports, sorted, one message for each flagged key without
// an allowlist row, and one for each allowlist row that is empty, names no
// declared key, or names a key the gate no longer flags.
func gateFindings(flaggedKeys []string, declared map[string]bool, allow map[string]string, text gateText) []string {
	var out []string
	flagged := map[string]bool{}
	for _, key := range flaggedKeys {
		flagged[key] = true
		if _, ok := allow[key]; !ok {
			out = append(out, key+text.flagged)
		}
	}
	for key, reason := range allow {
		row := text.table + " row " + key
		switch {
		case reason == "":
			out = append(out, row+" has no reason")
		case !declared[key]:
			out = append(out, row+" names no "+text.noun+"; prune it")
		case !flagged[key]:
			out = append(out, row+" "+text.used+"; prune it")
		}
	}
	sort.Strings(out)
	return out
}

// exportFindings runs the exports gate over pkgs.
func exportFindings(pkgs []*loader.Package, allow map[string]string) []string {
	unused, declared := unusedExports(pkgs)
	return gateFindings(unused, declared, allow, gateText{
		table:   "exportAllowlist",
		flagged: " is exported but no production code calls it; delete it, move it into the test that uses it, or add an exportAllowlist row with a reason",
		noun:    "exported function",
		used:    "is called by production code",
	})
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

// gateFixture loads the exports fixture package and its command.
func gateFixture(t *testing.T) []*loader.Package {
	t.Helper()
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
	return pkgs
}

// checkFindings runs gate over pkgs with allow and requires exactly the
// findings that start with want, in order.
func checkFindings(t *testing.T, gate func([]*loader.Package, map[string]string) []string, pkgs []*loader.Package, allow map[string]string, want ...string) {
	t.Helper()
	got := gate(pkgs, allow)
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestExportGateFixture pins the gate on a fixture: of a used export, an
// export only a test calls, an interface method and an allowlisted name, it
// flags only the test-only export; and it flags allowlist rows that are
// stale or no longer needed.
func TestExportGateFixture(t *testing.T) {
	pkgs := gateFixture(t)
	checkFindings(t, exportFindings, pkgs, map[string]string{"internal/exports.Allowed": "fixture seam"},
		"internal/exports.Unused is exported but no production code calls it")
	checkFindings(t, exportFindings, pkgs, map[string]string{
		"internal/exports.Allowed": "fixture seam",
		"internal/exports.Unused":  "",
		"internal/exports.Gone":    "deleted function",
		"internal/exports.Used":    "now called",
	},
		"exportAllowlist row internal/exports.Gone names no exported function",
		"exportAllowlist row internal/exports.Unused has no reason",
		"exportAllowlist row internal/exports.Used is called by production code")
}

// TestFieldGateFixture pins the field gate on the fixture's Knobs: keyed
// and positional literals, assignment, increment and address-taking count
// as writes; a write by the struct's own method or by a test does not; a
// tagged field is exempt. It also flags stale and needless allowlist rows.
func TestFieldGateFixture(t *testing.T) {
	pkgs := gateFixture(t)
	checkFindings(t, fieldFindings, pkgs, map[string]string{"internal/exports.Knobs.Allowed": "fixture seam"},
		"internal/exports.Knobs.Defaulted is a settable field but no production code sets it",
		"internal/exports.Knobs.TestOnly is a settable field but no production code sets it")
	checkFindings(t, fieldFindings, pkgs, map[string]string{
		"internal/exports.Knobs.Allowed":   "fixture seam",
		"internal/exports.Knobs.Defaulted": "",
		"internal/exports.Knobs.TestOnly":  "test seam",
		"internal/exports.Knobs.Gone":      "deleted field",
		"internal/exports.Knobs.Keyed":     "now set",
	},
		"fieldAllowlist row internal/exports.Knobs.Defaulted has no reason",
		"fieldAllowlist row internal/exports.Knobs.Gone names no exported field",
		"fieldAllowlist row internal/exports.Knobs.Keyed is set by production code")
}

// fieldAllowlist is the closed set of exported struct fields under
// internal/ that no production code sets but that stay fields anyway. Each
// row says why. A row whose field no longer exists, or that production now
// sets, fails TestConfigFieldsAreSet.
var fieldAllowlist = map[string]string{
	"internal/sim.Config.AdaptiveCrossover": "1 forces every slot far in the root quadtree benchmarks and gates, core's far epoch digests and sim's drift gates; production runs the calibrated default",
}

// structField is an exported field of an exported struct type declared in
// a non-test file of a package under internal/ (outside the exempt ones).
type structField struct {
	key    string          // package.Type.Field, module-relative
	owner  *types.TypeName // the struct type
	tagged bool            // carries a struct tag
}

// exportedFields collects every structField declared in pkgs, keyed by the
// field's object.
func exportedFields(pkgs []*loader.Package) map[*types.Var]structField {
	fields := map[*types.Var]structField{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "sinrconn/internal/") || exportGateExempt(pkg.Path) {
			continue
		}
		prefix := strings.TrimPrefix(pkg.Path, "sinrconn/") + "."
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					owner := pkg.Info.Defs[ts.Name].(*types.TypeName)
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.IsExported() {
								v := pkg.Info.Defs[name].(*types.Var)
								fields[v] = structField{prefix + ts.Name.Name + "." + name.Name, owner, f.Tag != nil}
							}
						}
					}
				}
			}
		}
	}
	return fields
}

// unsetFields returns, sorted, the key (package.Type.Field) of every
// exported field of an exported struct type declared in a package under
// internal/ that no code in pkgs writes, outside the methods of that type.
// A write is a keyed or positional composite literal, an assignment, an
// increment or decrement, or taking the field's address. Fields with a
// struct tag are left out: encoding fills them. The loader reads only
// non-test files, so a write from a test does not count. It also returns
// every declared key, which the allowlist check needs.
func unsetFields(pkgs []*loader.Package) (unset []string, declared map[string]bool) {
	fields := exportedFields(pkgs)
	for v, f := range fields {
		if f.tagged {
			delete(fields, v)
		}
	}

	written := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var recv *types.TypeName
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					if n := receiverNamed(info.Defs[fd.Name].(*types.Func)); n != nil {
						recv = n.Obj()
					}
				}
				write := func(v *types.Var) {
					if v == nil {
						return
					}
					v = v.Origin()
					if f, ok := fields[v]; ok && f.owner != recv {
						written[v] = true
					}
				}
				writeExpr := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							write(s.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									v, _ := info.Uses[id].(*types.Var)
									write(v)
								}
							} else if i < st.NumFields() {
								write(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							writeExpr(lhs)
						}
					case *ast.IncDecStmt:
						writeExpr(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writeExpr(n.X)
						}
					}
					return true
				})
			}
		}
	}

	declared = map[string]bool{}
	for v, f := range fields {
		declared[f.key] = true
		if !written[v] {
			unset = append(unset, f.key)
		}
	}
	sort.Strings(unset)
	return unset, declared
}

// fieldFindings runs the field gate over pkgs.
func fieldFindings(pkgs []*loader.Package, allow map[string]string) []string {
	unset, declared := unsetFields(pkgs)
	return gateFindings(unset, declared, allow, gateText{
		table:   "fieldAllowlist",
		flagged: " is a settable field but no production code sets it; fold it into a constant, move it into the test that sets it, or add a fieldAllowlist row with a reason",
		noun:    "exported field",
		used:    "is set by production code",
	})
}

// TestConfigFieldsAreSet is the regrowth gate for knobs only one value
// reaches: every exported field of an exported struct declared in a
// non-test file under internal/ must be written by non-test code other than
// the struct's own methods (its defaults, say), or carry a fieldAllowlist
// row. A field nothing sets always holds its default, which belongs in a
// named constant.
func TestConfigFieldsAreSet(t *testing.T) {
	for _, f := range fieldFindings(loadModule(t), fieldAllowlist) {
		t.Error(f)
	}
}

// channelTypes are the engine-wide settings of the channel a construction
// runs on, keyed like exportKey: the worker pool, the slot observer, the
// fault injector and the far-field plan. sim.Config (channelHome) is the
// one struct that describes the channel, so it alone holds them.
var channelTypes = map[string]bool{
	"internal/sim.Pool":        true,
	"internal/sim.Observer":    true,
	"internal/faults.Injector": true,
	"internal/sinr.QuadTree":   true,
}

const channelHome = "internal/sim.Config"

// channelAllowlist is the closed set of exported fields outside sim.Config
// that hold a channel type anyway. Each row says why. A row whose field no
// longer exists, or no longer holds a channel type, fails
// TestChannelConfigIsSimConfig.
var channelAllowlist = map[string]string{
	"internal/serve.Config.Injector": "a daemon deployment setting: the HTTP middleware consults it, and the server hands it to every session it opens through the public WithFaultInjector option",
}

// channelCopies returns, sorted, the key of every exported field of an
// exported struct under internal/, other than channelHome, whose type is a
// channel type or a pointer to one. It also returns every declared key.
func channelCopies(pkgs []*loader.Package) (copies []string, declared map[string]bool) {
	declared = map[string]bool{}
	for v, f := range exportedFields(pkgs) {
		declared[f.key] = true
		owner := strings.TrimPrefix(f.owner.Pkg().Path(), "sinrconn/") + "." + f.owner.Name()
		if owner == channelHome {
			continue
		}
		t := v.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			continue
		}
		if channelTypes[strings.TrimPrefix(n.Obj().Pkg().Path(), "sinrconn/")+"."+n.Obj().Name()] {
			copies = append(copies, f.key)
		}
	}
	sort.Strings(copies)
	return copies, declared
}

// channelFindings runs the channel-config gate over pkgs.
func channelFindings(pkgs []*loader.Package, allow map[string]string) []string {
	copies, declared := channelCopies(pkgs)
	return gateFindings(copies, declared, allow, gateText{
		table:   "channelAllowlist",
		flagged: " copies a channel setting out of sim.Config; hold a sim.Config instead, or add a channelAllowlist row with a reason",
		noun:    "exported field",
		used:    "holds no channel type",
	})
}

// TestChannelConfigIsSimConfig is the regrowth gate for copies of the
// channel description: an exported field of an exported struct under
// internal/ may hold a worker pool, an observer, a fault injector or a
// far-field plan only inside sim.Config, the one config every engine,
// construction and epoch runs on, or with a channelAllowlist row. A second
// copy means one more place every new engine-wide setting must be
// threaded through.
func TestChannelConfigIsSimConfig(t *testing.T) {
	for _, f := range channelFindings(loadModule(t), channelAllowlist) {
		t.Error(f)
	}
}

// TestChannelGateFixture pins the channel-config gate on the fixture's
// construct.Config: of one field per channel type, the channel kept in a
// sim.Config, an allowlisted copy, a plain field and unexported ones, it
// flags the four copies; sim.Config itself is exempt. It also flags stale
// and needless allowlist rows.
func TestChannelGateFixture(t *testing.T) {
	td := testdata(t)
	root := filepath.Join(td, "src")
	pkg, err := loader.New(td).LoadDir(filepath.Join(root, "sinrconn", "internal", "construct"), "sinrconn/internal/construct", root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.TypeErrors {
		t.Fatalf("type checking %s: %v", pkg.Path, e)
	}
	pkgs := []*loader.Package{pkg}
	allowed := map[string]string{"internal/construct.Config.Allowed": "fixture seam"}
	checkFindings(t, channelFindings, pkgs, allowed,
		"internal/construct.Config.Far copies a channel setting",
		"internal/construct.Config.Injector copies a channel setting",
		"internal/construct.Config.Observer copies a channel setting",
		"internal/construct.Config.Pool copies a channel setting")
	checkFindings(t, channelFindings, pkgs, map[string]string{
		"internal/construct.Config.Allowed":  "fixture seam",
		"internal/construct.Config.Far":      "",
		"internal/construct.Config.Gone":     "deleted field",
		"internal/construct.Config.Seed":     "not a channel type",
		"internal/construct.Config.Injector": "seam",
		"internal/construct.Config.Observer": "seam",
		"internal/construct.Config.Pool":     "seam",
	},
		"channelAllowlist row internal/construct.Config.Far has no reason",
		"channelAllowlist row internal/construct.Config.Gone names no exported field",
		"channelAllowlist row internal/construct.Config.Seed holds no channel type")
}
