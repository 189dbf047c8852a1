// Package ratfloat forbids floating-point arithmetic in the packages
// that compute over exact rationals.
//
// The paper's guarantee is *exact* optimal steady-state throughput: the
// LP is solved over big.Rat, and the periodic-schedule construction
// multiplies the solution by the LCM of its denominators — a float
// anywhere on that path silently destroys both the optimality
// certificate and the integer period. The analyzer therefore flags, in
// the LP core (internal/lp), the shared framework (internal/core), the
// per-kind solver packages (internal/scatter, internal/reduce) and
// internal/composite:
//
//   - any use of the identifiers float64 or float32 (conversions,
//     declarations, struct fields, parameters);
//   - floating-point literals;
//   - calls into package math (math/big is fine — it is the exact
//     representation).
//
// Telemetry that genuinely wants a float — the lp_density ratio, wall
// clock milliseconds — carries a //sslint:allow directive naming the
// reason; such values must flow out of the package (into reports),
// never back into rational arithmetic.
package ratfloat

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ratfloat pass.
var Analyzer = &analysis.Analyzer{
	Name: "ratfloat",
	Doc:  "forbid floating-point arithmetic in the exact-rational packages",
	Run:  run,
}

// run flags float identifiers, float literals and math.* calls.
func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), analysis.SolverPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[n]; obj != nil && isUniverseFloat(obj) {
					pass.Reportf(n.Pos(), "use of %s in an exact-rational package (solve over rat.Rat / big.Rat, or //sslint:allow for outbound telemetry)", n.Name)
				}
			case *ast.BasicLit:
				if n.Kind == token.FLOAT {
					pass.Reportf(n.Pos(), "floating-point literal %s in an exact-rational package (use rat.Parse or big.Rat)", n.Value)
				}
			case *ast.SelectorExpr:
				if isMathPackage(pass, n) && !isIntegerConst(pass, n.Sel) {
					pass.Reportf(n.Pos(), "package math is floating-point; use math/big for exact arithmetic")
				}
			}
			return true
		})
	}
	return nil
}

// isUniverseFloat reports whether obj is the predeclared float64 or
// float32 type.
func isUniverseFloat(obj types.Object) bool {
	if obj.Parent() != types.Universe {
		return false
	}
	return obj.Name() == "float64" || obj.Name() == "float32"
}

// isIntegerConst reports whether the identifier resolves to an integer
// (or untyped integer) constant — math.MaxInt and friends are exact and
// stay legal.
func isIntegerConst(pass *analysis.Pass, id *ast.Ident) bool {
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok {
		return false
	}
	b, ok := c.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isMathPackage reports whether sel selects from the plain math package
// (not math/big, math/bits, ...).
func isMathPackage(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "math"
}
