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

// warmPath is what testdata/warm-chains-seed42.json pins of one solve of
// a warm chain sweep: the answer, the LP counters and the warm-start
// outcome.
type warmPath struct {
	Name            string           `json:"name"`
	Kind            steadystate.Kind `json:"kind"`
	Throughput      string           `json:"throughput"`
	Period          string           `json:"period"`
	LPPivots        int              `json:"lp_pivots"`
	LPPhase1Pivots  int              `json:"lp_phase1_pivots"`
	WarmStart       bool             `json:"warm_start"`
	WarmReject      string           `json:"warm_reject"`
	WarmPivotsSaved int              `json:"lp_warm_pivots_saved"`
}

// TestSeed42WarmChainPivotPath is TestSeed42SweepColdPivotPath for the
// warm path: it generates CI's three seed-42 warm-chain shapes, sweeps
// each with Warm, so every solve after a chain head rebuilds its
// predecessor's basis, and pins every result's answer, pivot counters and
// warm-start outcome. A change that moves warm pivots on purpose
// regenerates the golden with
//
//	for b in "scatter 4 8" "broadcast 3 6" "allreduce 2 4 -ranks 3"; do set -- $b
//	  go run ./cmd/topogen -kind tiers -spec -seed 42 -op $1 -count $2 -perturb $3 ${4:+$4 $5} -out /tmp/w42/$1
//	  go run ./cmd/sweep -jobs 2 -warm -out /tmp/w42/$1.json /tmp/w42/$1/*.json
//	done
//	jq -s '[.[].results[] | {name, kind, throughput, period, lp_pivots,
//	  lp_phase1_pivots: (.lp_phase1_pivots // 0), warm_start: (.warm_start // false),
//	  warm_reject: (.warm_reject // ""), lp_warm_pivots_saved: (.lp_warm_pivots_saved // 0)}]' \
//	  /tmp/w42/scatter.json /tmp/w42/broadcast.json /tmp/w42/allreduce.json
func TestSeed42WarmChainPivotPath(t *testing.T) {
	dir := t.TempDir()
	var got []warmPath
	for _, b := range []struct {
		op, count, perturb string
		extra              []string
	}{
		{"scatter", "4", "8", nil},
		{"broadcast", "3", "6", nil},
		{"allreduce", "2", "4", []string{"-ranks", "3"}},
	} {
		sub := filepath.Join(dir, b.op)
		runOK(t, append([]string{"-kind", "tiers", "-spec", "-seed", "42",
			"-op", b.op, "-count", b.count, "-perturb", b.perturb, "-out", sub}, b.extra...)...)
		jobs, err := sweep.LoadDir(sub, "*.json")
		if err != nil {
			t.Fatal(err)
		}
		report, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 2, Warm: true})
		if err != nil {
			t.Fatalf("warm sweep of %s chains: %v", b.op, err)
		}
		if report.Failed != 0 {
			t.Fatalf("%d of %d %s scenarios failed: %+v", report.Failed, report.Scenarios, b.op, report.Failures)
		}
		for _, r := range report.Results {
			got = append(got, warmPath{r.Name, r.Kind, r.Throughput, r.Period, r.LPPivots, r.LPPhase1Pivots,
				r.WarmStart, r.WarmReject, r.WarmPivotsSaved})
		}
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "warm-chains-seed42.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []warmPath
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != 67 {
		t.Fatalf("golden holds %d results, want the chains' 67", len(want))
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

// TestSymmetricPivotPath pins the pivot paths of the degenerate LPs of
// symmetric platforms: reduce-scatter and allreduce on the 4-node ring
// and on the stars with 4 and 5 leaves, where most phase-2 pivots are
// degenerate. It sweeps the six scenarios and compares every result's
// throughput, period and pivot counters with the golden, which a change
// that moves pivots on purpose regenerates with
//
//	for k in "ring 4" "star 4" "star 5"; do set -- $k
//	  for op in reducescatter allreduce; do
//	    go run ./cmd/topogen -kind $1 -n $2 -spec -op $op -out /tmp/sym/$1-$2-$op.json
//	  done
//	done
//	go run ./cmd/sweep -jobs 2 /tmp/sym/*.json |
//	  jq '[.results[] | {name, kind, throughput, period, lp_pivots, lp_phase1_pivots: (.lp_phase1_pivots // 0), lp_nonzeros}]'
func TestSymmetricPivotPath(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []struct{ kind, n string }{{"ring", "4"}, {"star", "4"}, {"star", "5"}} {
		for _, op := range []string{"reducescatter", "allreduce"} {
			runOK(t, "-kind", p.kind, "-n", p.n, "-spec", "-op", op,
				"-out", filepath.Join(dir, p.kind+"-"+p.n+"-"+op+".json"))
		}
	}
	jobs, err := sweep.LoadDir(dir, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	report, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d of %d scenarios failed: %+v", report.Failed, report.Scenarios, report.Failures)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "symmetric-pivots.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []pivotPath
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != 6 || len(report.Results) != len(want) {
		t.Fatalf("%d results, golden holds %d, want 6", len(report.Results), len(want))
	}
	for i, r := range report.Results {
		if got := (pivotPath{r.Name, r.Kind, r.Throughput, r.Period, r.LPPivots, r.LPPhase1Pivots, r.LPNonZeros}); got != want[i] {
			t.Errorf("result %d:\n got  %+v\n want %+v", i, got, want[i])
		}
	}
}
