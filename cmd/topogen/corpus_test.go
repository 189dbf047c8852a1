package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
	"repro/internal/sweep"
)

// pivotPath is what testdata/sweep-cold-seed42.json pins of one solved
// scenario: its answer and the LP counters that follow the pivot path.
type pivotPath struct {
	Name           string           `json:"name"`
	Kind           steadystate.Kind `json:"kind"`
	Throughput     string           `json:"throughput"`
	Period         string           `json:"period"`
	LPPivots       int              `json:"lp_pivots"`
	LPPhase1Pivots int              `json:"lp_phase1_pivots"`
	LPNonZeros     int              `json:"lp_nonzeros"`
}

// TestSeed42SweepColdPivotPath generates the seed-42 corpus the
// benchmark's sweep-cold workload and CI's bench-smoke sweep solve — 16
// scatter, 8 broadcast and 4 allreduce (-ranks 3) Tiers scenarios — sweeps
// it, and pins every result's throughput, period and pivot counters. A
// change to the simplex's arithmetic must leave all of them in place; a
// change that moves pivots on purpose regenerates the golden with
//
//	for b in "scatter 16" "broadcast 8" "allreduce 4 -ranks 3"; do set -- $b
//	  go run ./cmd/topogen -kind tiers -spec -seed 42 -op $1 -count $2 ${3:+$3 $4} -out /tmp/c42/$1
//	done
//	go run ./cmd/sweep -jobs 2 /tmp/c42/*/*.json |
//	  jq '[.results[] | {name, kind, throughput, period, lp_pivots, lp_phase1_pivots: (.lp_phase1_pivots // 0), lp_nonzeros}]'
func TestSeed42SweepColdPivotPath(t *testing.T) {
	dir := t.TempDir()
	var jobs []sweep.Job
	for _, b := range []struct {
		op, count string
		extra     []string
	}{
		{"scatter", "16", nil},
		{"broadcast", "8", nil},
		{"allreduce", "4", []string{"-ranks", "3"}},
	} {
		sub := filepath.Join(dir, b.op)
		runOK(t, append([]string{"-kind", "tiers", "-spec", "-seed", "42",
			"-op", b.op, "-count", b.count, "-out", sub}, b.extra...)...)
		batch, err := sweep.LoadDir(sub, "*.json")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, batch...)
	}
	report, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d of %d scenarios failed: %+v", report.Failed, report.Scenarios, report.Failures)
	}
	got := make([]pivotPath, 0, len(report.Results))
	for _, r := range report.Results {
		got = append(got, pivotPath{r.Name, r.Kind, r.Throughput, r.Period, r.LPPivots, r.LPPhase1Pivots, r.LPNonZeros})
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "sweep-cold-seed42.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []pivotPath
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != 28 {
		t.Fatalf("golden holds %d results, want the corpus's 28", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
