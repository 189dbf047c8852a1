package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	steadystate "repro"
	"repro/internal/obs"
)

var topogenBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	topogenBin = filepath.Join(dir, "topogen")
	build := exec.Command("go", "build", "-o", topogenBin, "repro/cmd/topogen")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("build topogen: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, seconds: 1, trace: trace,
		topogen: topogenBin, work: t.TempDir(), root: "..", scale: 0.1}
}

func TestNormalisationIsIdentityAtReferenceSpeed(t *testing.T) {
	if got := normDuration(12.5, 1); got != 12.5 {
		t.Errorf("normDuration(12.5, 1) = %v", got)
	}
	if got := normRate(80, 1); got != 80 {
		t.Errorf("normRate(80, 1) = %v", got)
	}
	c := &calibrator{slices: []float64{refIPS, refIPS * 2, refIPS / 2}}
	if sp := c.speed(); sp != 1 {
		t.Errorf("speed over slices with reference median = %v, want 1", sp)
	}
	// A machine running at half the reference speed takes twice as long;
	// normalisation halves its timings and doubles its rates.
	c.slices = []float64{refIPS / 2, refIPS / 2}
	if sp := c.speed(); normDuration(20, sp) != 10 || normRate(5, sp) != 10 {
		t.Errorf("half-speed normalisation: speed %v, 20 ms → %v, 5/s → %v", sp, normDuration(20, sp), normRate(5, sp))
	}
}

func TestKernelWorkPerIterationIsConstant(t *testing.T) {
	k := newKernel()
	bits := [3]int{k.a.BitLen(), k.b.BitLen(), k.c.BitLen()}
	first := k.iterate()
	for i := 0; i < 1000; i++ {
		if got := k.iterate(); got != first {
			t.Fatalf("iteration %d digest %x, first %x", i, got, first)
		}
	}
	if now := [3]int{k.a.BitLen(), k.b.BitLen(), k.c.BitLen()}; now != bits {
		t.Errorf("operand sizes moved from %v to %v", bits, now)
	}
	if newKernel().iterate() != first {
		t.Error("a fresh kernel computes a different digest")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) → [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) → [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTamperedReferenceFailsTheRun(t *testing.T) {
	cfg := testConfig(t, "replay-k1000", false)
	cfg.tamper = func(refs map[string]*reference) {
		refs["sweep/fig6-reduce.json"].Throughput = "1/3"
	}
	var stdout, stderr bytes.Buffer
	if code := runOne(cfg, &stdout, &stderr); code == 0 {
		t.Fatalf("run with a tampered reference exited 0\n%s", stdout.String())
	}
	var res line
	if err := json.Unmarshal(lastLine(t, stdout.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d; want only the tampered input's ops failed",
			res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(stderr.String(), "fig6-reduce") {
		t.Errorf("failure not reported on stderr:\n%s", stderr.String())
	}
}

func TestWarmPeriodMismatchIsCountedNotAccepted(t *testing.T) {
	r := &runner{def: sweepWarmDef, log: io.Discard,
		refs: map[string]*reference{"c": {Throughput: "1/2", Period: "6"}}}
	if err := r.checkReport("c", &steadystate.Report{Throughput: "1/2", Period: "4"}); err == nil {
		t.Error("a cold solve at another period passed")
	}
	for _, rep := range []*steadystate.Report{
		{Throughput: "1/2", Period: "4", WarmStart: true},
		{Throughput: "1/2", Period: "4", WarmReject: "infeasible_basis"},
	} {
		if err := r.checkReport("c", rep); err != nil {
			t.Errorf("warm-offered solve at another period failed: %v", err)
		}
	}
	if r.periodMismatches != 2 {
		t.Errorf("periodMismatches = %d, want 2", r.periodMismatches)
	}
	if err := r.checkReport("c", &steadystate.Report{Throughput: "1/3", Period: "6", WarmStart: true}); err == nil {
		t.Error("a warm solve with another throughput passed")
	}
	if r.periodMismatches != 2 {
		t.Errorf("a wrong throughput was counted as a period mismatch")
	}
}

func TestTraceReconciles(t *testing.T) {
	cfg := testConfig(t, "replay-k1000", true)
	r := &runner{cfg: cfg, def: replayDef, log: os.Stderr, cal: newCalibrator()}
	paths, err := replayDef.gen(cfg, cfg.work)
	if err != nil {
		t.Fatal(err)
	}
	w := replayDef.build(r, paths)
	defer w.close()
	if err := r.measure(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	for _, u := range r.units {
		if !u.traced {
			continue
		}
		if len(u.roots) != len(u.reports) || len(u.roots) == 0 {
			t.Fatalf("%d solve roots for %d reports", len(u.roots), len(u.reports))
		}
		for i, root := range u.roots {
			var phase1, phase2 float64
			var selfSum float64
			root.Walk(func(s *obs.Span) {
				switch s.Name {
				case "lp.phase1":
					phase1 += attr(s, "pivots")
				case "lp.phase2":
					phase2 += attr(s, "pivots")
				}
				if self := selfMS(s); self < -0.01*spanMS(root) {
					t.Errorf("span %s has negative self time %v ms", s.Name, self)
				}
				selfSum += selfMS(s)
			})
			rep := u.reports[i]
			if int(phase1+phase2) != rep.LPPivots || int(phase1) != rep.LPPhase1Pivots {
				t.Errorf("solve %d: span pivots %v+%v, report lp_pivots %d (phase 1 %d)",
					i, phase1, phase2, rep.LPPivots, rep.LPPhase1Pivots)
			}
			if d := spanMS(root); math.Abs(selfSum-d) > 0.01*d {
				t.Errorf("solve %d: self times sum to %v ms, root lasted %v ms", i, selfSum, d)
			}
		}
		for _, op := range u.spans {
			solve := op.Children[0]
			if solve.Name != "solve" || len(solve.Children) != 1 {
				t.Fatalf("op span's first child is %q with %d children, want the harness solve span with the program's root grafted in",
					solve.Name, len(solve.Children))
			}
			if prog := spanMS(solve.Children[0]); prog > 1.01*spanMS(solve) {
				t.Errorf("program solve root lasted %v ms, longer than the harness call's %v ms", prog, spanMS(solve))
			}
		}
	}
	lt := r.layerTimes()
	total := 0.0
	for _, ms := range lt.self {
		total += ms
	}
	if math.Abs(total-lt.solveMS) > 0.01*lt.solveMS {
		t.Errorf("layer self times sum to %v ms, solves lasted %v ms", total, lt.solveMS)
	}
}

// declared reads the metrics BENCHMARK.json declares, name → unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func lastLine(t *testing.T, out string) []byte {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return []byte(lines[len(lines)-1])
}

// TestSmoke runs every workload for a second on shrunken inputs,
// untraced and twice traced: each run must emit exactly the declared
// metrics with their units, and the exact counters must repeat across
// runs. The workloads run in parallel; only their outputs are checked.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			counters := map[string][]float64{}
			for _, trace := range []bool{false, true, true} {
				var stdout, stderr bytes.Buffer
				if code := runOne(testConfig(t, def.name, trace), &stdout, &stderr); code != 0 {
					t.Fatalf("trace=%v exited %d\n%s", trace, code, stderr.String())
				}
				var res line
				if err := json.Unmarshal(lastLine(t, stdout.String()), &res); err != nil {
					t.Fatal(err)
				}
				want := e2e
				if trace {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, %d declared", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					v, ok := res.Metrics[name]
					if !ok || v.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, declared unit %s", trace, name, v, unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
					}
				}
				if trace {
					for _, name := range []string{"lp.pivots", "lp.phase1_pivots", "schedule.slots"} {
						counters[name] = append(counters[name], res.Metrics[name].Value)
					}
				}
			}
			for name, vs := range counters {
				if vs[0] != vs[1] {
					t.Errorf("%s differs across identical runs: %v", name, vs)
				}
			}
			if counters["lp.pivots"][0] == 0 {
				t.Error("lp.pivots is 0")
			}
		})
	}
}
