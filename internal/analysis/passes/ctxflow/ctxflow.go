// Package ctxflow enforces the repository's context discipline: solver
// entry points accept and honor a context.Context, and fresh root
// contexts are not minted inside the library.
//
// Cancellation is threaded from the HTTP edge (solverd deadlines) and
// the sweep engine all the way into the exact simplex, which checks the
// context between pivots. That chain breaks silently wherever a library
// function calls context.Background()/context.TODO() instead of
// propagating its caller's context, or where a Solve entry point simply
// does not take one. The analyzer flags, outside package main and
// tests:
//
//   - calls to context.Background or context.TODO, except in the two
//     sanctioned idioms: the nil-context normalization guard
//     (`if ctx == nil { ctx = context.Background() }`) and a
//     single-return convenience wrapper delegating to its own *Ctx
//     variant (`func (p *P) Solve() { return p.SolveCtx(context.Background()) }`);
//   - exported functions or methods named Solve* that neither take a
//     context.Context parameter nor are such a delegating wrapper;
//   - context.Context parameters that the function body never uses — an
//     accepted-but-dropped context is how a new solver loop silently
//     becomes uncancellable.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "require contexts on Solve entry points and forbid fresh root contexts in the library",
	Run:  run,
}

// run applies the three context rules to every function declaration.
func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSolveEntry(pass, fd)
			checkCtxParamUsed(pass, fd)
			checkRootContexts(pass, fd)
		}
	}
	return nil
}

// checkSolveEntry flags exported Solve* functions that neither accept a
// context nor delegate to their own *Ctx variant.
func checkSolveEntry(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !fd.Name.IsExported() || !strings.HasPrefix(name, "Solve") {
		return
	}
	if ctxParam(pass, fd) != nil || isCtxDelegation(fd) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported %s does not accept a context.Context: cancellation cannot reach the simplex (add a ctx parameter or delegate to %sCtx)", name, name)
}

// checkCtxParamUsed flags a context parameter the body never reads —
// an accepted-but-dropped context.
func checkCtxParamUsed(pass *analysis.Pass, fd *ast.FuncDecl) {
	obj := ctxParam(pass, fd)
	if obj == nil || obj.Name() == "_" || obj.Name() == "" {
		return
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			used = true
			return false
		}
		return !used
	})
	if !used {
		pass.Reportf(obj.Pos(), "context parameter %s is never used: pass it on or check ctx.Err() so cancellation propagates", obj.Name())
	}
}

// checkRootContexts flags context.Background()/TODO() calls outside the
// sanctioned idioms.
func checkRootContexts(pass *analysis.Pass, fd *ast.FuncDecl) {
	if isCtxDelegation(fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := rootContextCall(pass, call)
		if name == "" {
			return true
		}
		if name == "Background" && inNilGuard(pass, fd, call) {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s() severs the cancellation chain: propagate the caller's ctx (nil-guard normalization and Ctx-delegating wrappers are exempt)", name)
		return true
	})
}

// ctxParam returns the object of the first context.Context parameter,
// or nil.
func ctxParam(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		if len(field.Names) == 0 {
			// An anonymous ctx parameter exists but can never be used;
			// surface it through the unused-parameter message instead.
			return types.NewParam(field.Type.Pos(), pass.Pkg, "_", t)
		}
		return pass.TypesInfo.ObjectOf(field.Names[0])
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// rootContextCall returns "Background" or "TODO" when the call is
// context.Background() or context.TODO(), else "".
func rootContextCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}

// isCtxDelegation reports whether the function body is a single return
// statement calling <name>Ctx — the sanctioned context-free convenience
// wrapper around a context-aware variant.
func isCtxDelegation(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	want := fd.Name.Name + "Ctx"
	found := false
	for _, res := range ret.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == want {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == want {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// inNilGuard reports whether the call appears as the right-hand side of
// `x = context.Background()` inside `if x == nil { ... }` — the idiom
// that normalizes an optional caller context.
func inNilGuard(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	guard := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || guard {
			return !guard
		}
		obj := nilComparedObject(pass, ifStmt.Cond)
		if obj == nil {
			return true
		}
		for _, stmt := range ifStmt.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			if as.Rhs[0] != call {
				continue
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				guard = true
			}
		}
		return !guard
	})
	return guard
}

// nilComparedObject returns the object compared against nil in a
// `x == nil` condition, or nil.
func nilComparedObject(pass *analysis.Pass, cond ast.Expr) types.Object {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return nil
	}
	x, y := bin.X, bin.Y
	if isNilIdent(pass, x) {
		x, y = y, x
	}
	if !isNilIdent(pass, y) {
		return nil
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// isNilIdent reports whether the expression is the predeclared nil.
func isNilIdent(pass *analysis.Pass, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}
