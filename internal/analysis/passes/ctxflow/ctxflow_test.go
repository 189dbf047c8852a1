package ctxflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/ctxflow"
)

// TestFlagged checks context-free Solve entries, dropped ctx parameters
// and fresh root contexts are caught.
func TestFlagged(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "testdata/flagged", "repro/internal/fixture")
}

// TestClean checks the sanctioned idiom — nil-guard normalization —
// stays quiet.
func TestClean(t *testing.T) {
	if diags := analysistest.Diagnostics(t, ctxflow.Analyzer, "testdata/clean", "repro/internal/fixture"); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}
