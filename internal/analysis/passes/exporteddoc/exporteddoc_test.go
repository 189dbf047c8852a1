package exporteddoc_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/exporteddoc"
)

// TestFlagged checks undocumented functions, types and methods are
// caught, and undocumented methods on unexported receivers (value or
// pointer) are exempt.
func TestFlagged(t *testing.T) {
	analysistest.Run(t, exporteddoc.Analyzer, "testdata/flagged", "repro/internal/fixture")
}

// TestFlaggedValueSpecs checks undocumented vars and consts
// programmatically (a same-line want comment would count as the trailing
// doc comment the rule accepts).
func TestFlaggedValueSpecs(t *testing.T) {
	diags := analysistest.Diagnostics(t, exporteddoc.Analyzer, "testdata/vars", "repro/internal/fixture")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	for i, want := range []string{"exported var Undocumented", "exported const Loose"} {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want mention of %q", i, diags[i].Message, want)
		}
	}
}

// TestClean checks every accepted documentation style stays quiet.
func TestClean(t *testing.T) {
	if diags := analysistest.Diagnostics(t, exporteddoc.Analyzer, "testdata/clean", "repro/internal/fixture"); len(diags) != 0 {
		t.Fatalf("clean fixture flagged: %v", diags)
	}
}
