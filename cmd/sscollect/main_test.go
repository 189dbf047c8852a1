package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	steadystate "repro"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errOut.String())
	}
	return out.String()
}

func writeTriangle(t *testing.T) string {
	t.Helper()
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1))
	c := p.AddNode("c", steadystate.R(1, 1))
	p.AddLink(a, b, steadystate.R(1, 1))
	p.AddLink(b, c, steadystate.R(1, 1))
	p.AddLink(a, c, steadystate.R(1, 1))
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tri.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScatterOnFig2(t *testing.T) {
	out := runOK(t, "-platform", "fig2", "-op", "scatter", "-schedule", "-simulate", "20")
	for _, want := range []string{"TP = 1/2", "slot boundaries:", "simulated 20 periods", "repeats from period 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReduceOnFig6(t *testing.T) {
	out := runOK(t, "-platform", "fig6", "-op", "reduce", "-trees", "-schedule", "-simulate", "20")
	for _, want := range []string{"reduce throughput TP = 1", "reduction tree", "simulated 20 periods"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyFlag(t *testing.T) {
	out := runOK(t, "-platform", "fig2", "-op", "scatter", "-simulate", "30", "-latency")
	if !strings.Contains(out, "pipeline latency: min") {
		t.Errorf("missing latency report:\n%s", out)
	}
}

func TestPrefixOnFig6(t *testing.T) {
	out := runOK(t, "-platform", "fig6", "-op", "prefix")
	if !strings.Contains(out, "prefix throughput") {
		t.Errorf("output:\n%s", out)
	}
}

func TestScatterOnFile(t *testing.T) {
	path := writeTriangle(t)
	out := runOK(t, "-platform", path, "-op", "scatter", "-source", "a", "-targets", "b,c")
	if !strings.Contains(out, "scatter throughput") {
		t.Errorf("output:\n%s", out)
	}
}

func TestGossipOnFile(t *testing.T) {
	path := writeTriangle(t)
	out := runOK(t, "-platform", path, "-op", "gossip", "-sources", "a,b", "-targets", "b,c", "-schedule", "-simulate", "10")
	if !strings.Contains(out, "gossip throughput") {
		t.Errorf("output:\n%s", out)
	}
}

func TestReduceCustomSizeOnFile(t *testing.T) {
	path := writeTriangle(t)
	out := runOK(t, "-platform", path, "-op", "reduce", "-order", "a,b,c", "-target", "a", "-size", "2")
	if !strings.Contains(out, "reduce throughput") {
		t.Errorf("output:\n%s", out)
	}
}

// TestSizeFlagsGoToSolve: -size and -blocksize reach Solve only when
// given, so the kind accepts them or Solve refuses them; left unset, the
// kind's unit sizes apply.
func TestSizeFlagsGoToSolve(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "fig6", "-op", "prefix", "-size", "10"}, "prefix throughput TP = 1/40 "},
		{[]string{"-platform", "fig6", "-op", "reduce"}, "reduce throughput TP = 1 "},
		{[]string{"-platform", "fig6", "-op", "gather", "-blocksize", "2"}, "gather throughput TP = 1/4 "},
	} {
		if out := runOK(t, c.args...); !strings.Contains(out, c.want) {
			t.Errorf("run(%v): output missing %q:\n%s", c.args, c.want, out)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "fig2", "-size", "2"}, "steadystate: WithMessageSize is not supported for scatter specs"},
		{[]string{"-platform", "fig6", "-op", "reduce", "-blocksize", "2"}, "steadystate: WithBlockSize is not supported for reduce specs"},
	} {
		var out, errOut bytes.Buffer
		err := run(c.args, &out, &errOut)
		if !errors.Is(err, steadystate.ErrUnsolvable) || err.Error() != c.want {
			t.Errorf("run(%v): err %v, want Solve's refusal %q", c.args, err, c.want)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	path := writeTriangle(t)
	cases := [][]string{
		{},                              // missing platform
		{"-platform", "nope.json"},      // unreadable file
		{"-platform", path, "-op", "x"}, // unknown op
		{"-platform", path, "-op", "scatter", "-source", "zzz", "-targets", "b"},                   // unknown node
		{"-platform", path, "-op", "gossip"},                                                       // missing endpoints
		{"-platform", path, "-op", "reduce", "-order", "a,b", "-target", "a", "-size", "bad"},      // bad size
		{"-platform", path, "-op", "gather", "-order", "a,b", "-target", "a", "-blocksize", "bad"}, // bad block size
		{"-badflag"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestLoadPlatformBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(path); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestScenarioFileCarriesSpec(t *testing.T) {
	// A scenario file supplies both platform and spec: no role flags
	// needed.
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1))
	c := p.AddNode("c", steadystate.R(1, 1))
	p.AddLink(a, b, steadystate.R(1, 1))
	p.AddLink(b, c, steadystate.R(1, 1))
	sc := &steadystate.Scenario{Platform: p, Spec: steadystate.ScatterSpec(a, b, c)}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	out := runOK(t, "-platform", path, "-report", report)
	if !strings.Contains(out, "scatter throughput") {
		t.Errorf("output:\n%s", out)
	}
	// -report is the single-scenario runner: the file holds the indented
	// report JSON plus a trailing newline.
	data, err = os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep steadystate.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Kind != steadystate.KindScatter || rep.Throughput != "1/2" {
		t.Errorf("report = %+v, want scatter with TP 1/2", rep)
	}
	want, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want)+"\n" {
		t.Errorf("report bytes are not the indented JSON plus newline:\n%s", data)
	}
}

func TestGatherOnFile(t *testing.T) {
	path := writeTriangle(t)
	out := runOK(t, "-platform", path, "-op", "gather", "-order", "a,b,c", "-target", "a", "-blocksize", "2", "-trees")
	for _, want := range []string{"gather throughput", "reduction trees cover"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReportFile(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	runOK(t, "-platform", "fig6", "-op", "reduce", "-fixedperiod", "30", "-report", report)
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep steadystate.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Kind != steadystate.KindReduce || rep.Throughput != "1" {
		t.Errorf("report = %+v, want reduce with TP 1", rep)
	}
	if rep.FixedPeriod != "30" || rep.FixedThroughput == "" {
		t.Errorf("report missing fixed-period fields: %+v", rep)
	}
}

// TestPrefixScheduleOnFig6: -schedule prints the prefix's periodic
// schedule — its partial-result transfers decomposed into one-port-safe
// slots over the period — and -simulate replays it.
func TestPrefixScheduleOnFig6(t *testing.T) {
	out := runOK(t, "-platform", "fig6", "-op", "prefix", "-schedule", "-simulate", "10")
	for _, want := range []string{
		"prefix throughput TP = 1/4 (period 4)",
		"period 4, 4 slots",
		"slot boundaries:   [0,1) [1,2) [2,3) [3,4)",
		"P0→P1:             - - 1/2×v[0,1] 1/2×v[0,1]",
		"P2→P0:             1×v[2,2] - - -",
		"simulated 10 periods",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompositeSimulateMemberLines(t *testing.T) {
	// A composite -simulate reports the merged replay plus one line per
	// member against the member's own bound.
	path := filepath.Join("..", "..", "testdata", "sweep", "fig6-rscatter.json")
	out := runOK(t, "-platform", path, "-simulate", "20")
	for _, want := range []string{"simulated 20 periods", "member op0 (reduce)", "member op2 (reduce)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
