// Package sslint assembles the repository's analyzer suite — the seven
// passes that mechanize the exactness, determinism, context, fragment,
// error-code, tracing and documentation invariants — for cmd/sslint and
// the driver-level tests.
package sslint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/errcode"
	"repro/internal/analysis/passes/exporteddoc"
	"repro/internal/analysis/passes/fragmentcontract"
	"repro/internal/analysis/passes/mapdeterminism"
	"repro/internal/analysis/passes/obsflow"
	"repro/internal/analysis/passes/ratfloat"
)

// Suite returns the full analyzer suite in stable (alphabetical) order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		errcode.Analyzer,
		exporteddoc.Analyzer,
		fragmentcontract.Analyzer,
		mapdeterminism.Analyzer,
		obsflow.Analyzer,
		ratfloat.Analyzer,
	}
}

// ByName returns the named analyzers from the suite, or false when a
// name is unknown.
func ByName(names []string) ([]*analysis.Analyzer, bool) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range Suite() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
