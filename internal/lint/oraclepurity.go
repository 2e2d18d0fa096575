package lint

import (
	"go/ast"
	"sort"
	"strings"

	"sinrconn/internal/lint/analysis"
)

// oraclePkg is the one package OraclePurity applies to.
const oraclePkg = "sinrconn/internal/oracle"

// oracleAllowedImports is the closed set of packages the oracle may import:
// the standard library's pure value helpers plus the three leaf data
// packages. Everything else — and internal/sinr above all — is the fast
// path the oracle exists to check, so importing it would make the trust
// anchor circular.
var oracleAllowedImports = map[string]bool{
	"errors":                 true,
	"fmt":                    true,
	"math":                   true,
	"sort":                   true,
	"sinrconn/internal/geom": true,
	"sinrconn/internal/phys": true,
	"sinrconn/internal/tree": true,
}

// oracleBannedCalls are fast-path entry points the oracle must not call even
// though they are reachable through its allowed imports (phys.PowAlpha and
// friends): the oracle's physics must be the naive math.Pow/math.Hypot
// formulation, never the kernel's unrolled integer-power path.
var oracleBannedCalls = map[string]bool{
	"PowAlpha":    true,
	"PowAlphaSq":  true,
	"MinPower":    true,
	"SafePower":   true,
	"DistSq":      true,
	"DistAlpha":   true,
	"LengthAlpha": true,
}

// OraclePurity enforces DESIGN.md §11.1: internal/oracle may import only
// data-type packages and must compute its physics naively.
var OraclePurity = &analysis.Analyzer{
	Name: "oraclepurity",
	Doc:  "internal/oracle may import only data-type packages and must use naive math, never kernel fast paths",
	Run:  runOraclePurity,
}

func runOraclePurity(pass *analysis.Pass) error {
	if pass.PkgPath != oraclePkg {
		return nil
	}
	allowed := make([]string, 0, len(oracleAllowedImports))
	for p := range oracleAllowedImports {
		allowed = append(allowed, p)
	}
	sort.Strings(allowed)
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !oracleAllowedImports[path] {
				pass.Reportf(imp.Pos(), "oracle may not import %q (allowed: %s)", path, strings.Join(allowed, ", "))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if oracleBannedCalls[sel.Sel.Name] {
				pass.Reportf(call.Pos(), "oracle must not call fast-path %s; use naive math.Pow/math.Hypot", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
