package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	steadystate "repro"
	"repro/internal/sweep"
)

const fixtureDir = "../../testdata/sweep"

func runOK(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestSweepDirToFiles drives the full CLI path: sweep the fixture
// directory, write the aggregate and the JSONL stream to files, and check
// both parse and agree with each other.
func TestSweepDirToFiles(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")
	jsonlPath := filepath.Join(dir, "log.jsonl")
	_, errOut := runOK(t, "-dir", fixtureDir, "-jobs", "4", "-out", outPath, "-jsonl", jsonlPath)
	if !strings.Contains(errOut, "solved") {
		t.Errorf("missing summary on stderr: %q", errOut)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var report steadystate.SweepReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("aggregate does not parse: %v", err)
	}
	if report.Failed != 1 || report.Solved != report.Scenarios-1 {
		t.Errorf("solved/failed = %d/%d of %d, want exactly the malformed fixture failing",
			report.Solved, report.Failed, report.Scenarios)
	}
	if report.Timing == nil {
		t.Error("CLI aggregate should include the timing block")
	}

	lines, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var rec sweep.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("JSONL line does not parse: %v (%q)", err, line)
		}
		n++
	}
	if n != report.Scenarios {
		t.Errorf("JSONL has %d lines for %d scenarios", n, report.Scenarios)
	}
}

// TestSweepStdout: without -out the aggregate goes to stdout.
func TestSweepStdout(t *testing.T) {
	out, _ := runOK(t, "-dir", fixtureDir, "-glob", "fig6-*.json", "-jobs", "2")
	var report steadystate.SweepReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("stdout is not a SweepReport: %v", err)
	}
	if report.Scenarios != 3 || report.Failed != 0 {
		t.Errorf("glob sweep saw %d scenarios (%d failed), want 3 clean fig6 solves",
			report.Scenarios, report.Failed)
	}
}

// TestSweepExplicitFiles: positional file arguments join the batch.
func TestSweepExplicitFiles(t *testing.T) {
	out, _ := runOK(t, filepath.Join(fixtureDir, "fig6-reduce.json"))
	var report steadystate.SweepReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatal(err)
	}
	if report.Solved != 1 {
		t.Errorf("solved = %d, want 1", report.Solved)
	}
}

// TestSweepShardFlag: a shard run is labeled and strictly smaller than
// the batch.
func TestSweepShardFlag(t *testing.T) {
	out, _ := runOK(t, "-dir", fixtureDir, "-shard", "0/2")
	var report steadystate.SweepReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatal(err)
	}
	if report.Shard != "0/2" {
		t.Errorf("shard label = %q, want 0/2", report.Shard)
	}
	if report.Scenarios == 0 || report.Scenarios >= 8 {
		t.Errorf("shard 0/2 covers %d scenarios, want a strict subset of 8", report.Scenarios)
	}
}

// TestSweepSimulateFlag: -simulate replays every solved scenario and puts
// its verdict on the result; conforming replays exit zero.
func TestSweepSimulateFlag(t *testing.T) {
	out, _ := runOK(t, "-dir", fixtureDir, "-glob", "fig6-*.json", "-simulate", "10")
	var report steadystate.SweepReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatal(err)
	}
	if report.Solved != 3 || report.ReplayFailures != 0 {
		t.Errorf("solved %d, replay failures %d; want 3 conforming fig6 replays", report.Solved, report.ReplayFailures)
	}
	for _, res := range report.Results {
		if res.Replay == nil || res.Replay.Periods != 10 || res.Replay.Err() != nil {
			t.Errorf("%s: replay verdict %+v, want a passing 10-period check", res.Name, res.Replay)
		}
	}
}

// TestPrintReplayFailures: a failed verdict is reported by file name and
// kind, so two results named alike — one file per kind directory — are
// told apart, and a passing verdict prints nothing.
func TestPrintReplayFailures(t *testing.T) {
	report := &steadystate.SweepReport{
		ReplayFailures: 1,
		Results: []*steadystate.SweepResult{
			{Name: "tiers-0000.json", Kind: steadystate.KindBroadcast,
				Replay: &steadystate.ReplayCheck{Windows: []steadystate.ReplayWindow{{Kind: steadystate.KindBroadcast, OK: true}}}},
			{Name: "tiers-0000.json", Kind: steadystate.KindScatter,
				Replay: &steadystate.ReplayCheck{Windows: []steadystate.ReplayWindow{{Kind: steadystate.KindScatter, Reason: "below the floor"}}}},
			{Name: "tiers-0001.json", Kind: steadystate.KindScatter},
		},
	}
	var out bytes.Buffer
	printReplayFailures(&out, report)
	if got, want := out.String(), "sweep: tiers-0000.json (scatter): replay: scatter: below the floor\n"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{},                         // no inputs
		{"-dir", "does-not-exist"}, // unlistable dir
		{"-dir", fixtureDir, "-shard", "nope"},
		{"-dir", fixtureDir, "-shard", "2/2"},
		{"-dir", fixtureDir, "-shard", "-1/2"},
		{"-dir", fixtureDir, "-shard", "0/2/4"}, // trailing garbage
		{"-dir", fixtureDir, "-shard", "1/2x"},
		{"-dir", fixtureDir, "-shard", "1/"},
		{"-dir", fixtureDir, "-glob", "[bad"},
		{"-dir", fixtureDir, "-simulate", "-1"},
		{"-badflag"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
