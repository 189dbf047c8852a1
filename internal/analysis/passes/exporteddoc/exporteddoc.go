// Package exporteddoc enforces the repository's documentation bar:
// every exported identifier carries a doc comment. It runs under sslint,
// so one run covers documentation alongside the exactness and
// determinism invariants.
//
// The rule:
//
//   - functions and methods (methods only when their receiver type is
//     itself exported) need a doc comment on the declaration;
//   - types need a doc comment on the declaration group or the spec;
//   - consts and vars need a doc comment on the group, the spec, or a
//     trailing line comment (the idiomatic style for enum-like groups).
package exporteddoc

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Analyzer is the exporteddoc pass.
var Analyzer = &analysis.Analyzer{
	Name: "exporteddoc",
	Doc:  "every exported identifier carries a doc comment",
	Run:  run,
}

// finding is one undocumented exported identifier.
type finding struct {
	// Pos locates the offending declaration.
	Pos token.Pos
	// What classifies the identifier: function, method, type, const or
	// var.
	What string
	// Name is the identifier (method findings are receiver-qualified).
	Name string
}

// run reports a diagnostic per undocumented exported identifier.
func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fd := range checkFile(f) {
			pass.Reportf(fd.Pos, "exported %s %s is missing a doc comment", fd.What, fd.Name)
		}
	}
	return nil
}

// checkFile returns the file's undocumented exported identifiers in
// declaration order.
func checkFile(f *ast.File) []finding {
	var out []finding
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, checkFunc(d)...)
		case *ast.GenDecl:
			out = append(out, checkGen(d)...)
		}
	}
	return out
}

// checkFunc flags exported functions — and methods on exported receiver
// types — without doc comments.
func checkFunc(d *ast.FuncDecl) []finding {
	if !d.Name.IsExported() || d.Doc != nil {
		return nil
	}
	what, name := "function", d.Name.Name
	if d.Recv != nil && len(d.Recv.List) > 0 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return nil // a method on an unexported type is not API surface
		}
		what, name = "method", recv+"."+d.Name.Name
	}
	return []finding{{Pos: d.Pos(), What: what, Name: name}}
}

// checkGen flags exported type, const and var specs whose group and
// spec both lack documentation.
func checkGen(d *ast.GenDecl) []finding {
	var out []finding
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				out = append(out, finding{Pos: s.Pos(), What: "type", Name: s.Name.Name})
			}
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			what := "const"
			if d.Tok == token.VAR {
				what = "var"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					out = append(out, finding{Pos: name.Pos(), What: what, Name: name.Name})
				}
			}
		}
	}
	return out
}

// receiverName unwraps a method receiver's type expression to its named
// type, looking through pointers and generic instantiations.
func receiverName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
