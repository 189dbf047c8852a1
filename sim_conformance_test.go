// Sim-conformance suite: every kind, solved on the paper platforms and the
// seeded Tiers platform, must replay through SimModel with delivered
// counts inside [TP·K − warmup, TP·K] — Lemma 1 as the ceiling and the
// buffered protocol's pipeline-fill bound as the floor, with the warmup
// bounded by the schedule depth. Dense-vs-sparse and warm-vs-cold solves
// must additionally produce byte-identical models (same fingerprint) and
// identical delivered counts, pinning the whole solve→model→replay chain
// as deterministic. Every case is also pinned across commits against
// testdata/solve-identity.golden: report, LP pivot path, simulation model
// and schedule.
package steadystate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	steadystate "repro"
	"repro/internal/lp"
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

// perPeriodOps returns tp·period as an exact integer (the full per-sink
// delivery quota of one period).
func perPeriodOps(t *testing.T, tp steadystate.Rat, period *big.Int) *big.Int {
	t.Helper()
	scaled := new(big.Rat).Mul(tp, new(big.Rat).SetInt(period))
	if !scaled.IsInt() {
		t.Fatalf("TP·T = %s is not an integer", scaled.RatString())
	}
	return new(big.Int).Set(scaled.Num())
}

// assertConformance checks delivered ∈ [ops·(K−W), ops·K] with W the end
// of the initialization phase, itself bounded by the schedule depth.
func assertConformance(t *testing.T, label string, delivered, ops *big.Int, periods, firstFull, depth int) {
	t.Helper()
	if ops.Sign() == 0 {
		if delivered.Sign() != 0 {
			t.Errorf("%s: delivered %s with zero throughput", label, delivered)
		}
		return
	}
	if firstFull < 0 {
		t.Errorf("%s: pipeline never reached a full period", label)
		return
	}
	if firstFull > depth {
		t.Errorf("%s: warmup %d periods exceeds the schedule-depth bound %d", label, firstFull, depth)
	}
	upper := new(big.Int).Mul(ops, big.NewInt(int64(periods)))
	lower := new(big.Int).Mul(ops, big.NewInt(int64(periods-firstFull)))
	if delivered.Cmp(upper) > 0 {
		t.Errorf("%s: delivered %s beats the Lemma-1 bound %s", label, delivered, upper)
	}
	if delivered.Cmp(lower) < 0 {
		t.Errorf("%s: delivered %s below the warmup floor %s (warmup %d of %d periods)",
			label, delivered, lower, firstFull, periods)
	}
}

// runConformance replays a solved case and applies the delivered-count
// window per sink set — overall for base kinds, per member for composites.
func runConformance(t *testing.T, sol steadystate.Solution, periods int) {
	t.Helper()
	m, err := sol.SimModel()
	if err != nil {
		t.Fatalf("SimModel: %v", err)
	}
	res, err := steadystate.Simulate(m, periods)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	depth := len(m.Transfers) + len(m.Rules) + 1
	if conc, ok := sol.(steadystate.Concurrent); ok {
		for i, member := range conc.Members() {
			ops := perPeriodOps(t, member.Throughput(), m.Period)
			delivered := res.MinDeliveredPrefix(steadystate.SimMemberPrefix(i))
			assertConformance(t, string(member.Kind()), delivered, ops, periods, res.FirstFullPeriod, depth)
		}
		return
	}
	ops := perPeriodOps(t, sol.Throughput(), m.Period)
	assertConformance(t, string(sol.Kind()), res.MinDelivered(), ops, periods, res.FirstFullPeriod, depth)
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

// TestSimReplayIdentityDenseVsSparse: the dense and sparse LP cores walk
// bit-identical pivot sequences, so the models they induce must be
// byte-identical and replay identically.
func TestSimReplayIdentityDenseVsSparse(t *testing.T) {
	ctx := context.Background()
	p2, src2, targets2 := steadystate.PaperFig2()
	p6, order6, _ := steadystate.PaperFig6()
	cases := []simConformanceCase{
		{"broadcast/fig2", p2, steadystate.BroadcastSpec(src2, targets2...), 30},
		{"prefix/fig6", p6, steadystate.PrefixSpec(order6...), 30},
		{"reducescatter/fig6", p6, steadystate.ReduceScatterSpec(order6...), 30},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sparse, err := steadystate.Solve(ctx, c.p, c.spec)
			if err != nil {
				t.Fatalf("sparse Solve: %v", err)
			}
			dense, err := steadystate.Solve(lp.WithTableau(ctx, lp.TableauDense), c.p, c.spec)
			if err != nil {
				t.Fatalf("dense Solve: %v", err)
			}
			sameReplay(t, c.name, sparse, dense, c.periods)
		})
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
			solver := steadystate.NewSolver(c.p)
			solver.UseBasisCache(steadystate.NewBasisCache(8))
			if _, err := solver.Solve(ctx, c.spec); err != nil {
				t.Fatalf("cache-priming Solve: %v", err)
			}
			warm, err := solver.Solve(ctx, c.spec)
			if err != nil {
				t.Fatalf("warm Solve: %v", err)
			}
			sameReplay(t, c.name, cold, warm, c.periods)
		})
	}
}

// solveIdentityLine renders one case of the cross-commit identity golden:
// the report without its wall-clock fields, a digest of the lp.* spans of
// the timing-free trace (pivot, Bland and degenerate counters, objective
// waypoints), the simulation model fingerprint, and a digest of the Gantt
// rendering of the schedule (or "unsupported" for kinds without one).
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
	gantt := "unsupported"
	sched, err := sol.Schedule()
	switch {
	case errors.Is(err, steadystate.ErrUnsupported):
	case err != nil:
		t.Fatalf("%s: Schedule: %v", name, err)
	default:
		sum := sha256.Sum256([]byte(sched.Gantt()))
		gantt = hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("%s\treport=%s\tlp=%s\tsim=%s\tgantt=%s\n",
		name, report, hex.EncodeToString(lpHash.Sum(nil)), model.Fingerprint(), gantt)
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
