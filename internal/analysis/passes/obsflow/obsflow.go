// Package obsflow enforces the tracing discipline of internal/obs: the
// solver stack participates in a trace only through the context.
//
// A trace is rooted at the edge of the system — steadystate.Solve mints
// the Tracer, internal/serve and cmd/sweep ask for it — and
// travels down the solver stack inside the context. Library code opens
// spans with obs.StartSpan (or recovers the tracer with obs.FromContext)
// against the context it was handed; it never mints a tracer of its own
// and never re-installs one. A tracer minted mid-stack would fork the
// span tree away from the solve's root — the trace the caller receives
// silently loses the forked spans, and the golden trace-structure tests
// cannot see what was never attached. The analyzer therefore flags, in
// the solver packages (internal/lp, internal/core, internal/scatter,
// internal/reduce, internal/composite):
//
//   - calls to obs.NewTracer — tracers are minted at the edge only;
//   - calls to obs.WithTracer — installing a tracer is the root's move;
//     library code passes the context it received.
//
// obs.FromContext, obs.StartSpan and every Span/Tracer method remain
// free: they observe the context's trace without re-rooting it.
package obsflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the obsflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "obsflow",
	Doc:  "forbid minting or installing tracers below the solve root (use obs.FromContext/StartSpan)",
	Run:  run,
}

// rootOnly names the obs functions reserved for the trace root.
var rootOnly = map[string]string{
	"NewTracer":  "tracers are minted at the edge (Solve, serve, sweep)",
	"WithTracer": "installing a tracer re-roots the trace; pass the context you received",
}

// run flags obs.NewTracer and obs.WithTracer calls in solver packages.
func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), analysis.SolverPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			reason, reserved := rootOnly[sel.Sel.Name]
			if !reserved || !isObsPackage(pass, sel) {
				return true
			}
			pass.Reportf(call.Pos(), "obs.%s below the solve root: %s (use obs.FromContext/StartSpan)",
				sel.Sel.Name, reason)
			return true
		})
	}
	return nil
}

// isObsPackage reports whether sel selects from repro/internal/obs.
func isObsPackage(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "repro/internal/obs"
}
