// Dense-vs-sparse LP equivalence at the API level: the sparse tableau
// (production) and the dense reference tableau (WithDenseTableau) must
// return bit-identical solutions — same exact throughput, same pivot
// counts, both Verify-clean — for every collective kind, on seeded
// topogen-style platforms, and must induce byte-identical simulation
// models and traces. WithDenseTableau exists only in this package's test
// binary; the binary rebuilds every package above lp against lp's test
// variant, so the decoration reaches the simplex beneath
// steadystate.Solve. The per-pivot arithmetic is the only thing the
// representation is allowed to change; the benchmarks below measure that.
package lp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	steadystate "repro"
	"repro/internal/lp"
)

// equivalenceSpecs enumerates one spec per collective kind (plus a mixed
// composite) over the platform's participants.
func equivalenceSpecs(p *steadystate.Platform) map[string]steadystate.Spec {
	parts := p.Participants()
	scatter := steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3])
	reduce := steadystate.ReduceSpec([]steadystate.NodeID{parts[0], parts[1], parts[2]}, parts[0])
	return map[string]steadystate.Spec{
		"scatter":       scatter,
		"broadcast":     steadystate.BroadcastSpec(parts[0], parts[1], parts[2], parts[3]),
		"gossip":        steadystate.GossipSpec(parts[:2], parts[2:4]),
		"reduce":        reduce,
		"gather":        steadystate.GatherSpec([]steadystate.NodeID{parts[0], parts[1], parts[2]}, parts[0]),
		"prefix":        steadystate.PrefixSpec(parts[0], parts[1], parts[2]),
		"reducescatter": steadystate.ReduceScatterSpec(parts[0], parts[1], parts[2]),
		"allreduce":     steadystate.AllreduceSpec(parts[0], parts[1], parts[2]),
		"composite": steadystate.CompositeSpec(
			[]steadystate.Spec{scatter, reduce},
			[]steadystate.Rat{steadystate.R(1, 1), steadystate.R(2, 1)}),
	}
}

// TestSparseDenseEquivalenceAcrossKinds is the property test over seeded
// platforms: for each kind, the sparse and dense solves must agree on the
// exact throughput, the LP shape and cost counters (identical pivot
// sequence, not just identical optimum), and both must pass the
// solver-independent Verify.
func TestSparseDenseEquivalenceAcrossKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every kind twice per seed")
	}
	for _, seed := range []int64{7, 42} {
		p := steadystate.Tiers(steadystate.DefaultTiersConfig(seed))
		for name, spec := range equivalenceSpecs(p) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				sparse, err := steadystate.Solve(ctx, p, spec)
				if err != nil {
					t.Fatalf("sparse solve: %v", err)
				}
				dense, err := steadystate.Solve(lp.WithDenseTableau(ctx), p, spec)
				if err != nil {
					t.Fatalf("dense solve: %v", err)
				}
				if a, b := sparse.Throughput(), dense.Throughput(); a.Cmp(b) != 0 {
					t.Fatalf("throughput: sparse %s, dense %s", a.RatString(), b.RatString())
				}
				if a, b := sparse.Period(), dense.Period(); a.Cmp(b) != 0 {
					t.Fatalf("period: sparse %s, dense %s", a, b)
				}
				sr, err := sparse.Report()
				if err != nil {
					t.Fatalf("sparse report: %v", err)
				}
				dr, err := dense.Report()
				if err != nil {
					t.Fatalf("dense report: %v", err)
				}
				if sr.LPPivots != dr.LPPivots || sr.LPPhase1Pivots != dr.LPPhase1Pivots {
					t.Fatalf("pivots: sparse %d (%d phase 1), dense %d (%d phase 1)",
						sr.LPPivots, sr.LPPhase1Pivots, dr.LPPivots, dr.LPPhase1Pivots)
				}
				if sr.LPVars != dr.LPVars || sr.LPConstraints != dr.LPConstraints ||
					sr.LPNonZeros != dr.LPNonZeros || sr.LPDensity != dr.LPDensity {
					t.Fatalf("LP shape: sparse %d/%d/%d, dense %d/%d/%d",
						sr.LPVars, sr.LPConstraints, sr.LPNonZeros,
						dr.LPVars, dr.LPConstraints, dr.LPNonZeros)
				}
				if sr.LPNonZeros == 0 {
					t.Fatal("report carries no lp_nonzeros")
				}
				if sr.LPDensity <= 0 || sr.LPDensity > 0.5 {
					t.Fatalf("lp_density = %v; the steady-state LPs should be sparse", sr.LPDensity)
				}
				if err := sparse.Verify(); err != nil {
					t.Fatalf("sparse Verify: %v", err)
				}
				if err := dense.Verify(); err != nil {
					t.Fatalf("dense Verify: %v", err)
				}
			})
		}
	}
}

// TestDeferredRowsLockstepTiers is the lp package's
// TestDeferredRowsLockstep on a steady-state LP: the seed-42 Tiers
// broadcast from the first participant to all others (the first
// broadcast of the seed-42 sweep corpus, 290 pivots) runs on the sparse
// and the dense tableau in lockstep, and its degenerate pivots must
// defer rows and some ratio test must settle them.
func TestDeferredRowsLockstepTiers(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	parts := p.Participants()
	var n lp.LockstepCounts
	ctx := lp.WithLockstepTableau(context.Background(), t, &n)
	if _, err := steadystate.Solve(ctx, p, steadystate.BroadcastSpec(parts[0], parts[1:]...)); err != nil {
		t.Fatalf("solve: %v", err)
	}
	t.Logf("%+v", n)
	if n.Deferred == 0 || n.LeavingSettles == 0 {
		t.Fatalf("%+v: want rows deferred and ratio tests that settle them", n)
	}
}

// TestTracingChangesNoTableauWorkTiers is the lp package's
// TestTracingChangesNoTableauWork on the seed-42 Tiers broadcast of
// TestDeferredRowsLockstepTiers: traced and untraced, the solve must make
// the same tableau calls, deferred rows and all.
func TestTracingChangesNoTableauWorkTiers(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	parts := p.Participants()
	spec := steadystate.BroadcastSpec(parts[0], parts[1:]...)
	var untraced, traced []string
	if _, err := steadystate.Solve(lp.WithCallLog(context.Background(), &untraced), p, spec); err != nil {
		t.Fatalf("untraced solve: %v", err)
	}
	sol, err := steadystate.Solve(lp.WithCallLog(context.Background(), &traced), p, spec, steadystate.WithTrace())
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}
	if rep, err := sol.Report(); err != nil || rep.Trace == nil {
		t.Fatalf("traced solve carries no trace (%v)", err)
	}
	lp.SameTableauCalls(t, "tiers42 broadcast", untraced, traced)
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
	cases := []struct {
		name    string
		p       *steadystate.Platform
		spec    steadystate.Spec
		periods int
	}{
		{"broadcast/fig2", p2, steadystate.BroadcastSpec(src2, targets2...), 30},
		{"prefix/fig6", p6, steadystate.PrefixSpec(order6...), 30},
		{"reducescatter/fig6", p6, steadystate.ReduceScatterSpec(order6...), 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sparse, err := steadystate.Solve(ctx, c.p, c.spec)
			if err != nil {
				t.Fatalf("sparse Solve: %v", err)
			}
			dense, err := steadystate.Solve(lp.WithDenseTableau(ctx), c.p, c.spec)
			if err != nil {
				t.Fatalf("dense Solve: %v", err)
			}
			sameReplay(t, c.name, sparse, dense, c.periods)
		})
	}
}

// TestTraceIdentityDenseVsSparse is the dense leg of the root
// TestTraceGoldenStructure: on the tiers42 fixture, the dense tableau
// replays the sparse solve's trace byte for byte modulo timing — for a
// scatter (pure flow LP) and a reduce (tree extraction included).
func TestTraceIdentityDenseVsSparse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "tiers42.json"))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	p := steadystate.NewPlatform()
	if err := json.Unmarshal(data, p); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	parts := p.Participants()
	solver := steadystate.NewSolver(p)
	specs := map[string]steadystate.Spec{
		"scatter": steadystate.ScatterSpec(parts[0], parts[1:3]...),
		"reduce":  steadystate.ReduceSpec(parts[:4], parts[0]),
	}
	trace := func(t *testing.T, ctx context.Context, spec steadystate.Spec) string {
		t.Helper()
		sol, err := solver.Solve(ctx, spec, steadystate.WithTrace())
		if err != nil {
			t.Fatalf("traced solve: %v", err)
		}
		rep, err := sol.Report()
		if err != nil {
			t.Fatalf("report: %v", err)
		}
		if rep.Trace == nil {
			t.Fatal("WithTrace must attach Report.Trace")
		}
		out, err := json.Marshal(rep.Trace.WithoutTiming())
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			sparse := trace(t, ctx, spec)
			if dense := trace(t, lp.WithDenseTableau(ctx), spec); dense != sparse {
				t.Errorf("dense tableau changed the trace:\n%s\n%s", sparse, dense)
			}
		})
	}
}

// tiers42CompositeSpec is the Tiers-42 composite scenario of the sparse-LP
// ablation (the root BenchmarkAblationSparseLPSolve times the same one):
// the reduce-scatter over the first three participants of the seed-42
// Tiers platform (golden TP 695/283), solved as three concurrent reduces
// through the shared-capacity composite LP — the workload class whose
// variable count multiplies by the member count and therefore the one
// the sparse tableau is for.
func tiers42CompositeSpec(tb testing.TB) (*steadystate.Platform, steadystate.Spec) {
	tb.Helper()
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	parts := p.Participants()
	return p, steadystate.ReduceScatterSpec(parts[0], parts[1], parts[2])
}

// BenchmarkAblationDenseLP knocks out the sparse tableau: it solves the
// Tiers-42 composite scenario on the sparse production tableau and on the
// dense reference (WithDenseTableau) each iteration and reports the
// wall-clock ratio. Both solves run the identical pivot sequence — the
// benchmark fails if the exact throughputs diverge — so the ratio isolates
// the per-pivot cost of multiplying zeros. Expected ≥ 1.5× (8.5–9.1×
// measured on a 2-core x86-64 machine, 20 iterations).
func BenchmarkAblationDenseLP(b *testing.B) {
	p, spec := tiers42CompositeSpec(b)
	ctx := context.Background()
	denseCtx := lp.WithDenseTableau(ctx)
	var sparseTot, denseTot time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sparse, err := steadystate.Solve(ctx, p, spec)
		if err != nil {
			b.Fatal(err)
		}
		sparseTot += time.Since(start)
		start = time.Now()
		dense, err := steadystate.Solve(denseCtx, p, spec)
		if err != nil {
			b.Fatal(err)
		}
		denseTot += time.Since(start)
		if sparse.Throughput().Cmp(dense.Throughput()) != 0 {
			b.Fatalf("tableaus disagree: sparse %s, dense %s",
				sparse.Throughput().RatString(), dense.Throughput().RatString())
		}
	}
	// One aggregate ratio over all iterations (ReportMetric overwrites per
	// call, so reporting inside the loop would keep only the last sample).
	b.ReportMetric(float64(denseTot)/float64(sparseTot), "dense/sparse")
}

// BenchmarkAblationDenseLPSolve times the dense reference alone on the
// same scenario, the counterpart of the root
// BenchmarkAblationSparseLPSolve, so the CI artifact trend carries
// absolute solve times per representation.
func BenchmarkAblationDenseLPSolve(b *testing.B) {
	p, spec := tiers42CompositeSpec(b)
	ctx := lp.WithDenseTableau(context.Background())
	for i := 0; i < b.N; i++ {
		if _, err := steadystate.Solve(ctx, p, spec); err != nil {
			b.Fatal(err)
		}
	}
}
