// Package basisflow enforces the warm-start provenance contract of
// internal/lp: a Basis is a certificate, not a data structure.
//
// The warm-start machinery is safe because every lp.Basis in flight was
// minted by Solution.Basis() — a snapshot of a basis the simplex
// actually certified — and re-enters a solve only through the
// lp.WithWarmBasis handoff attached at the session edge
// (steadystate.Solver.Solve). A basis assembled by hand could name
// columns the rebuild cannot pivot in, and a WithWarmBasis decoration
// added mid-stack would offer a stale handoff to whichever solve
// happens to run first under that context, silently corrupting the
// per-solve accounting (the handoff is consumed exactly once). The
// analyzer therefore flags, in the solver packages above the LP
// (internal/core, internal/scatter, internal/gossip, internal/reduce,
// internal/composite):
//
//   - lp.Basis and lp.WarmStart composite literals, and new(lp.Basis) /
//     new(lp.WarmStart) — warm-start state is minted at the edge only;
//   - calls to lp.WithWarmBasis — decorating the context is the session
//     root's move.
//
// Solution.Basis(), Basis.Size(), Basis.Fingerprint() and every other
// read remain free: observing a certificate is not forging one.
package basisflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the basisflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "basisflow",
	Doc:  "forbid hand-built warm-start bases below the solve root (mint with Solution.Basis, hand off at the session edge)",
	Run:  run,
}

// scope lists the import paths (and their subpackages) where warm-start
// state may only be observed, never minted. internal/lp itself is the
// implementation and stays out of scope.
var scope = []string{
	"repro/internal/core",
	"repro/internal/scatter",
	"repro/internal/gossip",
	"repro/internal/reduce",
	"repro/internal/composite",
}

// inScope reports whether the package path is one of the solver
// packages or nested under one.
func inScope(path string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// minted names the lp types whose construction is reserved for the LP
// and the session edge.
var minted = map[string]bool{
	"Basis":     true,
	"WarmStart": true,
}

// run flags hand-constructed warm-start state and mid-stack handoffs in
// solver packages.
func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if name, ok := lpTypeName(pass, n.Type); ok && minted[name] {
					pass.Reportf(n.Pos(), "lp.%s composite literal below the solve root: bases are minted by Solution.Basis and handed off at the session edge",
						name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "WithWarmBasis" && isLPPackage(pass, sel.X) {
					pass.Reportf(n.Pos(), "lp.WithWarmBasis below the solve root: the warm handoff is attached at the session edge (Solver.Solve)")
					return true
				}
				// new(lp.Basis) / new(lp.WarmStart): the zero value poses as
				// a certificate just as much as a literal does.
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if name, ok := lpTypeName(pass, n.Args[0]); ok && minted[name] {
						pass.Reportf(n.Pos(), "new(lp.%s) below the solve root: bases are minted by Solution.Basis and handed off at the session edge",
							name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// lpTypeName resolves expr as a type selector on repro/internal/lp and
// returns the selected type name.
func lpTypeName(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || !isLPPackage(pass, sel.X) {
		return "", false
	}
	return sel.Sel.Name, true
}

// isLPPackage reports whether expr names the repro/internal/lp package.
func isLPPackage(pass *analysis.Pass, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "repro/internal/lp"
}
