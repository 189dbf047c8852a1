// Sim-conformance suite: every kind, solved on the paper platforms and the
// seeded Tiers platform, must replay through SimModel with delivered
// counts inside [TP·K − warmup, TP·K] — Lemma 1 as the ceiling and the
// buffered protocol's pipeline-fill bound as the floor, with the warmup
// bounded by the schedule depth (CheckReplay). Warm-vs-cold solves must
// additionally produce byte-identical models (same fingerprint) and
// identical delivered counts, pinning the whole solve→model→replay chain
// as deterministic (internal/lp pins the same for dense-vs-sparse solves,
// since only its test binary can select the dense tableau). Every case is
// also pinned across commits against testdata/solve-identity.golden:
// report, LP pivot path, simulation model and schedule.
package steadystate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	steadystate "repro"
)

// simConformanceCase is one (kind, platform) cell of the suite.
type simConformanceCase struct {
	name    string
	p       *steadystate.Platform
	spec    steadystate.Spec
	periods int
}

// simConformanceCases builds the kind×platform matrix: all eight kinds,
// collectively covering fig2, fig6, fig9 and the seed-42 Tiers platform.
func simConformanceCases(t *testing.T) []simConformanceCase {
	t.Helper()
	p2, src2, targets2 := steadystate.PaperFig2()
	p6, order6, target6 := steadystate.PaperFig6()
	p9, order9, _ := steadystate.PaperFig9()
	tiers := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	tparts := tiers.Participants()

	return []simConformanceCase{
		{"scatter/fig2", p2, steadystate.ScatterSpec(src2, targets2...), 60},
		{"scatter/fig9", p9, steadystate.ScatterSpec(order9[0], order9[1:]...), 60},
		{"broadcast/fig2", p2, steadystate.BroadcastSpec(src2, targets2...), 60},
		{"broadcast/fig9", p9, steadystate.BroadcastSpec(order9[0], order9[1:]...), 60},
		{"broadcast/tiers42", tiers, steadystate.BroadcastSpec(tparts[0], tparts[1:]...), 60},
		{"gossip/fig6", p6, steadystate.GossipSpec(order6, order6), 60},
		{"reduce/fig6", p6, steadystate.ReduceSpec(order6, target6), 60},
		{"gather/fig6", p6, steadystate.GatherSpec(order6, target6), 60},
		{"prefix/fig6", p6, steadystate.PrefixSpec(order6...), 60},
		{"prefix/tiers42", tiers, steadystate.PrefixSpec(tparts[:3]...), 60},
		{"reducescatter/fig6", p6, steadystate.ReduceScatterSpec(order6...), 60},
		{"allreduce/fig6", p6, steadystate.AllreduceSpec(order6...), 60},
		{"allreduce/tiers42", tiers, steadystate.AllreduceSpec(tparts[:3]...), 40},
		{"composite/fig6", p6, steadystate.CompositeSpec(
			[]steadystate.Spec{
				steadystate.ScatterSpec(order6[0], order6[1], order6[2]),
				steadystate.ReduceSpec(order6, order6[0]),
			},
			[]steadystate.Rat{steadystate.R(2, 1), steadystate.R(1, 1)}), 60},
	}
}

// runConformance replays a solved case and requires every sink set —
// the whole solution for base kinds, each member for composites — to land
// in its Lemma-1 window and, once the replay repeats a period, to deliver
// exactly TP·T per period at every sink.
func runConformance(t *testing.T, sol steadystate.Solution, periods int) {
	t.Helper()
	check, err := steadystate.CheckReplay(sol, periods)
	if err != nil {
		t.Fatalf("CheckReplay: %v", err)
	}
	if check.Steady < 0 {
		t.Errorf("no period repeats its buffers within %d periods", periods)
	}
	for _, w := range check.Windows {
		if !w.OK || !w.Exact {
			t.Errorf("%s: ok %v, exact %v: %s", w.Label(), w.OK, w.Exact, w.Reason)
		}
	}
}

// TestSimConformanceEveryKind is the headline table: solve → model →
// replay K periods → delivered ∈ [TP·K − warmup, TP·K] for every kind.
func TestSimConformanceEveryKind(t *testing.T) {
	ctx := context.Background()
	for _, c := range simConformanceCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sol, err := steadystate.Solve(ctx, c.p, c.spec)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			runConformance(t, sol, c.periods)
		})
	}
}

// TestReplayJumpEqualsFullRun: Simulate stops at the first period that
// ends with the buffers it started with and adds the remaining periods,
// so its result must be the one a run stepping every period returns. On
// every solvable testdata/sweep scenario and every conformance case, a
// 1000-period Simulate delivers what SimulateLatency (which steps every
// period) delivers, and its buffer high-water marks and warmup are those
// of Simulate(Steady+1), a run that ends on the repeating period and so
// steps all of its periods.
func TestReplayJumpEqualsFullRun(t *testing.T) {
	const periods = 1000
	ctx := context.Background()
	check := func(t *testing.T, sol steadystate.Solution) {
		m, err := sol.SimModel()
		if err != nil {
			t.Fatalf("SimModel: %v", err)
		}
		res, err := steadystate.Simulate(m, periods)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		if res.Steady < 0 {
			t.Fatalf("no period repeats its buffers within %d periods", periods)
		}
		stepped, err := steadystate.SimulateLatency(m, periods)
		if err != nil {
			t.Fatalf("SimulateLatency: %v", err)
		}
		if diff := diffCounts(res.Delivered, stepped.Delivered); diff != "" {
			t.Errorf("Delivered: Simulate and SimulateLatency differ at %s", diff)
		}
		ref, err := steadystate.Simulate(m, res.Steady+1)
		if err != nil {
			t.Fatalf("Simulate(%d): %v", res.Steady+1, err)
		}
		if ref.Steady != res.Steady || ref.FirstFullPeriod != res.FirstFullPeriod {
			t.Errorf("steady period %d, first full %d; Simulate(%d) gives %d and %d",
				res.Steady, res.FirstFullPeriod, res.Steady+1, ref.Steady, ref.FirstFullPeriod)
		}
		if diff := diffCounts(res.MaxBuffer, ref.MaxBuffer); diff != "" {
			t.Errorf("MaxBuffer: Simulate(%d) and Simulate(%d) differ at %s", periods, res.Steady+1, diff)
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "sweep", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "bad-") {
			continue // malformed on purpose
		}
		t.Run("sweep/"+filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var sc steadystate.Scenario
			if err := json.Unmarshal(data, &sc); err != nil {
				t.Fatalf("decode: %v", err)
			}
			sol, err := sc.Solve(ctx)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			check(t, sol)
		})
	}
	for _, c := range simConformanceCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sol, err := steadystate.Solve(ctx, c.p, c.spec)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			check(t, sol)
		})
	}
}

// diffCounts names the first key, in printed order, at which two count
// maps differ, or returns "" when they are equal.
func diffCounts[K comparable](a, b map[K]*big.Int) string {
	var diffs []string
	for k, v := range a {
		if w := b[k]; w == nil || v.Cmp(w) != 0 {
			diffs = append(diffs, fmt.Sprintf("%v: %s vs %v", k, v, w))
		}
	}
	for k, w := range b {
		if a[k] == nil {
			diffs = append(diffs, fmt.Sprintf("%v: <nil> vs %s", k, w))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	return diffs[0]
}

// scaledTP misreports a solution's throughput by a factor, leaving its
// schedule and simulation model alone.
type scaledTP struct {
	steadystate.Solution
	factor steadystate.Rat
}

func (s scaledTP) Throughput() steadystate.Rat {
	return new(big.Rat).Mul(s.Solution.Throughput(), s.factor)
}

// TestCheckReplayRejectsMisreportedThroughput: the window is tight on both
// sides. On a one-link scatter (TP = 2, period 1) a solution claiming half
// its rate delivers past Lemma 1's ceiling for the claim, and one claiming
// double its rate falls below the warmup floor. Either way the replay
// repeats a period, and the exact verdict fails too: the sink delivers 2
// per period, not the claimed TP·T.
func TestCheckReplayRejectsMisreportedThroughput(t *testing.T) {
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1))
	p.AddLink(a, b, steadystate.R(1, 2))
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(a, b))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Throughput().Cmp(steadystate.R(2, 1)) != 0 || sol.Period().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("TP = %s, period %s; want 2 and 1", sol.Throughput().RatString(), sol.Period())
	}
	for _, c := range []struct {
		factor steadystate.Rat
		reason string
	}{
		{steadystate.R(1, 2), "beats the Lemma-1 bound"},
		{steadystate.R(2, 1), "below the warmup floor"},
	} {
		check, err := steadystate.CheckReplay(scaledTP{sol, c.factor}, 20)
		if err != nil {
			t.Fatalf("CheckReplay: %v", err)
		}
		if len(check.Windows) != 1 {
			t.Fatalf("TP×%s: %d windows, want 1", c.factor.RatString(), len(check.Windows))
		}
		w := check.Windows[0]
		if w.OK || !strings.Contains(w.Reason, c.reason) || check.Err() == nil {
			t.Errorf("TP×%s: window %+v, want a failure whose reason has %q", c.factor.RatString(), w, c.reason)
		}
		if check.Steady < 0 || w.Exact {
			t.Errorf("TP×%s: steady period %d, exact %v; want a repeat and a failed exact verdict",
				c.factor.RatString(), check.Steady, w.Exact)
		}
	}
}

// doubledTo doubles every transfer of a solution's simulation model that
// arrives at one node, leaving its throughput claim alone.
type doubledTo struct {
	steadystate.Solution
	node steadystate.NodeID
}

func (d doubledTo) SimModel() (*steadystate.SimModel, error) {
	m, err := d.Solution.SimModel()
	if err != nil {
		return nil, err
	}
	out := *m
	out.Transfers = append(m.Transfers[:0:0], m.Transfers...)
	for i, tr := range out.Transfers {
		if tr.To == d.node {
			out.Transfers[i].Count = new(big.Int).Mul(tr.Count, big.NewInt(2))
		}
	}
	return &out, nil
}

// TestCheckReplayNamesOffRateSink: a replay whose completed operations sit
// inside the window can still fail the exact verdict, and the reason names
// the sink. On a two-target scatter (TP = 1, period 1), a model that ships
// c twice its quota still completes 1 operation per period, bounded by b,
// but c receives 2 per period.
func TestCheckReplayNamesOffRateSink(t *testing.T) {
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1))
	c := p.AddNode("c", steadystate.R(1, 1))
	p.AddLink(a, b, steadystate.R(1, 2))
	p.AddLink(a, c, steadystate.R(1, 2))
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(a, b, c))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Throughput().Cmp(steadystate.R(1, 1)) != 0 || sol.Period().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("TP = %s, period %s; want 1 and 1", sol.Throughput().RatString(), sol.Period())
	}
	check, err := steadystate.CheckReplay(doubledTo{sol, c}, 20)
	if err != nil {
		t.Fatalf("CheckReplay: %v", err)
	}
	if len(check.Windows) != 1 || check.Steady < 0 {
		t.Fatalf("steady period %d, windows %+v; want a repeat and one window", check.Steady, check.Windows)
	}
	w := check.Windows[0]
	want := fmt.Sprintf("delivers 2 per period from period %d, not TP·T = 1", check.Steady)
	if w.OK || w.Exact || !strings.HasPrefix(w.Reason, "sink m_") || !strings.Contains(w.Reason, " at c "+want) {
		t.Errorf("window %+v, want a failed exact verdict naming sink c: %q", w, want)
	}
	if w.Delivered != "20" || w.Floor != "20" || w.Bound != "20" {
		t.Errorf("window %+v, want 20 delivered inside [20, 20]", w)
	}
}

// TestCheckReplayCompositeMembers: a composite whose members carry
// different weights is judged member by member, each against its own
// throughput Weight·TP — never the merged minimum against the common TP,
// which would fail this conforming schedule.
func TestCheckReplayCompositeMembers(t *testing.T) {
	p6, order6, _ := steadystate.PaperFig6()
	spec := steadystate.CompositeSpec(
		[]steadystate.Spec{
			steadystate.ScatterSpec(order6[0], order6[1], order6[2]),
			steadystate.ReduceSpec(order6, order6[0]),
		},
		[]steadystate.Rat{steadystate.R(2, 1), steadystate.R(3, 1)})
	sol, err := steadystate.Solve(context.Background(), p6, spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	check, err := steadystate.CheckReplay(sol, 60)
	if err != nil {
		t.Fatalf("CheckReplay: %v", err)
	}
	want := []steadystate.ReplayWindow{
		{Member: "op0", Kind: steadystate.KindScatter, Delivered: "120", Floor: "120", Bound: "120", Exact: true, OK: true},
		{Member: "op1", Kind: steadystate.KindReduce, Delivered: "180", Floor: "180", Bound: "180", Exact: true, OK: true},
	}
	if len(check.Windows) != len(want) {
		t.Fatalf("%d windows, want one per member: %+v", len(check.Windows), check.Windows)
	}
	for i, w := range check.Windows {
		if w != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, w, want[i])
		}
	}
	if err := check.Err(); err != nil {
		t.Errorf("Err() = %v, want nil", err)
	}
}

// TestSimCompositeMemberSubmodels: the Concurrent surface must hand out
// working per-member submodels next to the merged model, and the merged
// replay must agree with each member's standalone replay scaled to the
// merged period (the member namespaces are disjoint, so the union replay
// is exact).
func TestSimCompositeMemberSubmodels(t *testing.T) {
	p, order, _ := steadystate.PaperFig6()
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ReduceScatterSpec(order...))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	merged, err := sol.SimModel()
	if err != nil {
		t.Fatalf("composite SimModel: %v", err)
	}
	const periods = 40
	mres, err := steadystate.Simulate(merged, periods)
	if err != nil {
		t.Fatalf("merged Simulate: %v", err)
	}
	for i, member := range sol.(steadystate.Concurrent).Members() {
		sub, err := member.SimModel()
		if err != nil {
			t.Fatalf("member %d SimModel: %v", i, err)
		}
		// Scale the standalone member model to the merged period (the
		// same namespacing Merge applies) and replay it alone: its
		// delivered count must equal the member's share of the merged run.
		scaled, err := steadystate.MergeSimModels(p, merged.Period,
			[]*steadystate.SimModel{sub}, []string{steadystate.SimMemberPrefix(i)})
		if err != nil {
			t.Fatalf("member %d scale: %v", i, err)
		}
		sres, err := steadystate.Simulate(scaled, periods)
		if err != nil {
			t.Fatalf("member %d Simulate: %v", i, err)
		}
		alone := sres.MinDelivered()
		inMerged := mres.MinDeliveredPrefix(steadystate.SimMemberPrefix(i))
		if alone.Cmp(inMerged) != 0 {
			t.Errorf("member %d delivered %s alone but %s inside the merged replay", i, alone, inMerged)
		}
	}
}

// sameReplay asserts two solves produced byte-identical models and
// identical delivered counts.
func sameReplay(t *testing.T, label string, a, b steadystate.Solution, periods int) {
	t.Helper()
	ma, err := a.SimModel()
	if err != nil {
		t.Fatalf("%s: first SimModel: %v", label, err)
	}
	mb, err := b.SimModel()
	if err != nil {
		t.Fatalf("%s: second SimModel: %v", label, err)
	}
	if fa, fb := ma.Fingerprint(), mb.Fingerprint(); fa != fb {
		t.Errorf("%s: model fingerprints differ: %s vs %s", label, fa, fb)
	}
	ra, err := steadystate.Simulate(ma, periods)
	if err != nil {
		t.Fatalf("%s: first Simulate: %v", label, err)
	}
	rb, err := steadystate.Simulate(mb, periods)
	if err != nil {
		t.Fatalf("%s: second Simulate: %v", label, err)
	}
	if len(ra.Delivered) != len(rb.Delivered) {
		t.Fatalf("%s: %d vs %d sinks", label, len(ra.Delivered), len(rb.Delivered))
	}
	for e, d := range ra.Delivered {
		if other := rb.Delivered[e]; other == nil || d.Cmp(other) != 0 {
			t.Errorf("%s: sink %v delivered %s vs %v", label, e, d, other)
		}
	}
}

// TestSimReplayIdentityWarmVsCold: a warm-started re-solve must reach the
// same optimal basis, hence the same model bytes and the same replay.
func TestSimReplayIdentityWarmVsCold(t *testing.T) {
	ctx := context.Background()
	p6, order6, _ := steadystate.PaperFig6()
	cases := []simConformanceCase{
		{"prefix/fig6", p6, steadystate.PrefixSpec(order6...), 30},
		{"allreduce/fig6", p6, steadystate.AllreduceSpec(order6...), 30},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cold, err := steadystate.Solve(ctx, c.p, c.spec)
			if err != nil {
				t.Fatalf("cold Solve: %v", err)
			}
			bases := steadystate.WithBasisCache(steadystate.NewBasisCache(8))
			if _, err := steadystate.Solve(ctx, c.p, c.spec, bases); err != nil {
				t.Fatalf("cache-priming Solve: %v", err)
			}
			warm, err := steadystate.Solve(ctx, c.p, c.spec, bases)
			if err != nil {
				t.Fatalf("warm Solve: %v", err)
			}
			sameReplay(t, c.name, cold, warm, c.periods)
		})
	}
}

// solveIdentityLine renders one case of the cross-commit identity golden:
// the report without its wall-clock fields, a digest of the lp.* spans of
// the timing-free trace (row shape, pivot, Bland and degenerate counters,
// phase objectives), the simulation model fingerprint, and a digest of
// the Gantt rendering of the schedule.
func solveIdentityLine(t *testing.T, name string, sol steadystate.Solution) string {
	t.Helper()
	rep, err := sol.Report()
	if err != nil {
		t.Fatalf("%s: Report: %v", name, err)
	}
	if rep.Trace == nil {
		t.Fatalf("%s: traced solve has no trace", name)
	}
	lpHash := sha256.New()
	rep.Trace.WithoutTiming().Root.Walk(func(s *steadystate.Span) {
		if !strings.HasPrefix(s.Name, "lp.") {
			return
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal span %s: %v", name, s.Name, err)
		}
		lpHash.Write(data)
		lpHash.Write([]byte{'\n'})
	})
	rep.SolveMS, rep.Trace = 0, nil
	report, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: marshal report: %v", name, err)
	}
	model, err := sol.SimModel()
	if err != nil {
		t.Fatalf("%s: SimModel: %v", name, err)
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("%s: Schedule: %v", name, err)
	}
	gantt := sha256.Sum256([]byte(sched.Gantt()))
	return fmt.Sprintf("%s\treport=%s\tlp=%s\tsim=%s\tgantt=%s\n",
		name, report, hex.EncodeToString(lpHash.Sum(nil)), model.Fingerprint(), hex.EncodeToString(gantt[:]))
}

// TestSolveIdentityGolden pins every conformance case, solved sparse, cold
// and traced, against testdata/solve-identity.golden. Refactors of the
// solve path must leave the file byte-identical: the same reports, the
// same pivot sequences, the same simulation models and the same schedules.
func TestSolveIdentityGolden(t *testing.T) {
	ctx := context.Background()
	var got strings.Builder
	for _, c := range simConformanceCases(t) {
		sol, err := steadystate.Solve(ctx, c.p, c.spec, steadystate.WithTrace())
		if err != nil {
			t.Fatalf("%s: Solve: %v", c.name, err)
		}
		got.WriteString(solveIdentityLine(t, c.name, sol))
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "solve-identity.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(golden) {
		t.Errorf("solve identity differs from testdata/solve-identity.golden:\ngot:\n%s\nwant:\n%s", got.String(), golden)
	}
}
