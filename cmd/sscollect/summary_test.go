package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	steadystate "repro"
	"repro/internal/sweep"
)

const sweepFixtures = "../../testdata/sweep"

// summaryRows parses the tab-aligned table that follows the header line
// starting with first, up to the first blank line, into rows keyed by
// their first column.
func summaryRows(t *testing.T, out, first string) (header []string, rows map[string][]string) {
	t.Helper()
	rows = make(map[string][]string)
	in := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		switch {
		case !in && len(fields) > 0 && fields[0] == first:
			in, header = true, fields
		case in && len(fields) == 0:
			return header, rows
		case in:
			rows[fields[0]] = fields
		}
	}
	if !in {
		t.Fatalf("no table headed %q in:\n%s", first, out)
	}
	return header, rows
}

// column returns the integer in row under the header's name column.
func column(t *testing.T, header, row []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			n, err := strconv.Atoi(row[i])
			if err != nil {
				t.Fatalf("column %s of %v: %v", name, row, err)
			}
			return n
		}
	}
	t.Fatalf("no column %s in %v", name, header)
	return 0
}

// TestTraceSummaryOnSweep feeds -op trace the trace stream of a traced
// sweep of the fixture corpus: per kind, the phase-1 and phase-2 pivot
// columns must be the sums of that kind's report counters, and the
// slowest-span table must list -top spans.
func TestTraceSummaryOnSweep(t *testing.T) {
	jobs, err := sweep.LoadDir(sweepFixtures, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	var traces bytes.Buffer
	report, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 2, Trace: &traces})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	in := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(in, traces.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-op", "trace", "-in", in, "-top", "3")

	phase1 := make(map[steadystate.Kind]int)
	phase2 := make(map[steadystate.Kind]int)
	for _, res := range report.Results {
		phase1[res.Kind] += res.LPPhase1Pivots
		phase2[res.Kind] += res.LPPivots - res.LPPhase1Pivots
	}
	header, rows := summaryRows(t, out, "kind")
	if len(rows) != len(phase1) {
		t.Errorf("%d kind rows for %d kinds:\n%s", len(rows), len(phase1), out)
	}
	for kind, want := range phase1 {
		row, ok := rows[string(kind)]
		if !ok {
			t.Errorf("no row for %s:\n%s", kind, out)
			continue
		}
		if got := column(t, header, row, "phase1_pivots"); got != want {
			t.Errorf("%s phase1_pivots %d, reports sum to %d", kind, got, want)
		}
		if got, want := column(t, header, row, "phase2_pivots"), phase2[kind]; got != want {
			t.Errorf("%s phase2_pivots %d, reports sum to %d", kind, got, want)
		}
	}
	_, list, ok := strings.Cut(out, "top 3 slowest span(s):\n")
	if spans := strings.Count(list, " ms "); !ok || spans != 3 {
		t.Errorf("want a list of 3 slowest spans, got %d:\n%s", spans, out)
	}
}

// TestWarmSummaryOnChain feeds -op warm the result stream of a warm sweep
// of a two-file chain holding one scenario twice: the chain row must show
// one warm start, and no reject reason may be listed.
func TestWarmSummaryOnChain(t *testing.T) {
	scenario, err := os.ReadFile(filepath.Join(sweepFixtures, "tiers42-scatter.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"x-p00.json", "x-p01.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), scenario, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := sweep.LoadDir(dir, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{Jobs: 1, Warm: true, JSONL: &log}); err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	in := filepath.Join(dir, "warm.jsonl")
	if err := os.WriteFile(in, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-op", "warm", "-in", in)
	header, rows := summaryRows(t, out, "chain")
	row, ok := rows["x"]
	if !ok || len(rows) != 1 {
		t.Fatalf("want the one chain x:\n%s", out)
	}
	if got := column(t, header, row, "members"); got != 2 {
		t.Errorf("chain x has %d members, want 2", got)
	}
	if got := column(t, header, row, "warm"); got != 1 {
		t.Errorf("chain x shows %d warm starts, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, "warm_starts 1  warm_rejects 0") || strings.Contains(out, "reject reasons:") {
		t.Errorf("want one warm start and no reject reason:\n%s", out)
	}
}

// TestSummaryErrorPaths: -op trace and -op warm refuse a missing -in and
// a line that does not parse.
func TestSummaryErrorPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"name\": \"ok\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-op", "trace"}, "-op trace needs -in"},
		{[]string{"-op", "warm"}, "-op warm needs -in"},
		{[]string{"-op", "trace", "-in", bad}, "parse line 2"},
		{[]string{"-op", "warm", "-in", bad}, "parse line 2"},
		{[]string{"-op", "trace", "-in", filepath.Join(t.TempDir(), "missing.jsonl")}, "open -in"},
	} {
		var out, errOut bytes.Buffer
		err := run(c.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): err %v, want %q", c.args, err, c.want)
		}
	}
}
