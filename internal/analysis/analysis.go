// Package analysis is the repository's static-analysis framework: a
// self-contained, stdlib-only reimplementation of the vocabulary of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic), sized for
// this module.
//
// The steady-state stack's headline guarantee is *exactness*: every
// throughput is a rational number, Reports are byte-identical across
// runs (golden sweeps, solverd's cache-hit identity, CI's
// served-vs-swept diff), and cancellation is threaded from the HTTP
// edge into the simplex between pivots. Those guarantees rest on
// conventions — no floats near the LP, no map-iteration order leaking
// into output, no dropped contexts — that nothing enforced until now.
// The analyzers under passes/ mechanize them, and cmd/sslint runs the
// whole suite on every commit.
//
// Why not golang.org/x/tools/go/analysis itself: the module is
// deliberately stdlib-only (see the internal/lp package doc), so the
// framework is reimplemented in miniature. The Analyzer/Pass/Diagnostic
// shape mirrors x/tools deliberately — each pass's Run func would port
// to the real framework with only import changes — but the driver here
// loads packages with `go list -export` and type-checks them against
// the compiler's export data via go/importer, instead of go/packages.
//
// # Suppressing a finding
//
// A finding is suppressed by a directive comment
//
//	//sslint:allow <reason>
//
// placed at the end of the flagged line or alone on the line directly
// above it. The reason is mandatory: a bare //sslint:allow is itself
// reported as a violation, so every suppression documents why the
// invariant does not apply (e.g. the float64 density telemetry in
// lp.Model.Stats, which never feeds back into rational arithmetic).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check: a name, a documentation string, and a
// Run function applied to every package under analysis. The shape
// mirrors golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the sslint
	// command line. By convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report. A non-nil error aborts the whole analysis (it means
	// the analyzer itself failed, not that the code has findings).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package: its
// syntax, its type information, and a sink for diagnostics. The shape
// mirrors golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included. Test
	// files are not loaded: the suite checks shipping code, and test
	// helpers (fixtures, golden writers) routinely bend the invariants
	// on purpose.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and object resolutions for Files.
	TypesInfo *types.Info
	// report receives each finding; installed by the driver.
	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a position, the analyzer that produced
// it, and a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// SolverPackages lists the import paths of the solver stack above the LP:
// the packages that assemble, solve and extract the steady-state
// programs. An analyzer that also covers internal/lp adds it itself.
var SolverPackages = []string{
	"repro/internal/core",
	"repro/internal/scatter",
	"repro/internal/reduce",
	"repro/internal/composite",
}

// InScope reports whether the package path is one of scope or nested
// under one.
func InScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}
