// Ablation benchmarks: quantify the paper's design choices by knocking
// each one out and measuring the throughput that remains.
//
//	go test -bench=Ablation -benchmem
package steadystate_test

import (
	"context"
	"math/big"
	"testing"
	"time"

	steadystate "repro"
	"repro/internal/baseline"
	"repro/internal/lp"
)

// BenchmarkAblationSingleTree measures what the best single extracted
// reduction tree achieves versus the full weighted family on the Fig-9
// platform: the gap is the value of mixing trees (the paper's key insight
// for Series of Reduces).
func BenchmarkAblationSingleTree(b *testing.B) {
	pr := fig9Problem(b)
	sol, _ := solveReduceProblem(b, pr)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var best steadystate.Rat
		for _, tree := range trees {
			tp, err := baseline.TreeThroughput(pr, tree)
			if err != nil {
				b.Fatal(err)
			}
			if best == nil || tp.Cmp(best) > 0 {
				best = tp
			}
		}
		if best.Cmp(sol.Throughput()) > 0 {
			b.Fatalf("single tree %s beats the family %s — impossible",
				best.RatString(), sol.Throughput().RatString())
		}
		ratio, _ := new(big.Rat).Quo(sol.Throughput(), best).Float64()
		b.ReportMetric(ratio, "family/single")
	}
}

// BenchmarkAblationComputeAtTarget disables the paper's interleaving of
// computation with communication by forcing all merges onto the target
// (gather-then-reduce). On Fig 6 this halves the throughput.
func BenchmarkAblationComputeAtTarget(b *testing.B) {
	p, order, target := steadystate.PaperFig6()
	free := mustSolve(b, p, steadystate.ReduceSpec(order, target))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := steadystate.NewReduceProblem(p, order, target)
		if err != nil {
			b.Fatal(err)
		}
		pr.ComputeAt = []steadystate.NodeID{target}
		sol, _ := solveReduceProblem(b, pr)
		if sol.Throughput().Cmp(free.Throughput()) > 0 {
			b.Fatal("restriction increased throughput")
		}
		ratio, _ := new(big.Rat).Quo(free.Throughput(), sol.Throughput()).Float64()
		b.ReportMetric(ratio, "free/restricted")
	}
}

// BenchmarkAblationCycleCancellation measures the tree-extraction pipeline
// with the full solution (extraction requires the cycle-cancelled transfer
// support; this bench tracks its cost on the largest instance).
func BenchmarkAblationCycleCancellation(b *testing.B) {
	pr := fig9Problem(b)
	sol, _ := solveReduceProblem(b, pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := sol.Integerize()
		if _, err := app.ExtractTrees(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGatherVsReduce contrasts a gather (concatenation sizes,
// free merges) with a same-shape reduce (unit sizes, real merges) on a
// chain: gathers cannot shrink data en route, so relaying buys nothing,
// while reduces keep link load constant.
func BenchmarkAblationGatherVsReduce(b *testing.B) {
	p := steadystate.Chain(4, steadystate.R(1, 1), steadystate.R(1, 1))
	var order []steadystate.NodeID
	for _, n := range p.Nodes() {
		order = append(order, n.ID)
	}
	for i := 0; i < b.N; i++ {
		g, err := steadystate.NewGatherProblem(p, order, order[0], steadystate.R(1, 1))
		if err != nil {
			b.Fatal(err)
		}
		gSol, _ := solveReduceProblem(b, g)
		rSol := mustSolve(b, p, steadystate.ReduceSpec(order, order[0]))
		if rSol.Throughput().Cmp(gSol.Throughput()) < 0 {
			b.Fatal("reduce should not be slower than gather on a chain")
		}
		ratio, _ := new(big.Rat).Quo(rSol.Throughput(), gSol.Throughput()).Float64()
		b.ReportMetric(ratio, "reduce/gather")
	}
}

// tiers42CompositeSpec is the Tiers-42 composite scenario of the sparse-LP
// ablation: the reduce-scatter over the first three participants of the
// seed-42 Tiers platform (golden TP 695/283), solved as three concurrent
// reduces through the shared-capacity composite LP — the workload class
// whose variable count multiplies by the member count and therefore the
// one the sparse tableau is for.
func tiers42CompositeSpec(tb testing.TB) (*steadystate.Platform, steadystate.Spec) {
	tb.Helper()
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	parts := p.Participants()
	return p, steadystate.ReduceScatterSpec(parts[0], parts[1], parts[2])
}

// BenchmarkAblationDenseLP knocks out the sparse tableau: it solves the
// Tiers-42 composite scenario on the sparse default and on the dense
// reference (lp.WithTableau with lp.TableauDense) each iteration and
// reports the wall-clock ratio. Both solves run the identical pivot sequence — the benchmark
// fails if the exact throughputs diverge — so the ratio isolates the
// per-pivot cost of multiplying zeros. Expected ≥ 1.5× (≈ 2.4× measured
// on the reference container).
func BenchmarkAblationDenseLP(b *testing.B) {
	p, spec := tiers42CompositeSpec(b)
	ctx := context.Background()
	denseCtx := lp.WithTableau(ctx, lp.TableauDense)
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

// BenchmarkAblationSparseLPSolve and BenchmarkAblationDenseLPSolve time
// the two tableaus separately on the same scenario, so the CI artifact
// trend carries absolute solve times per representation.
func BenchmarkAblationSparseLPSolve(b *testing.B) {
	p, spec := tiers42CompositeSpec(b)
	for i := 0; i < b.N; i++ {
		if _, err := steadystate.Solve(context.Background(), p, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDenseLPSolve(b *testing.B) {
	p, spec := tiers42CompositeSpec(b)
	ctx := lp.WithTableau(context.Background(), lp.TableauDense)
	for i := 0; i < b.N; i++ {
		if _, err := steadystate.Solve(ctx, p, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUnsplitCost measures the period blow-up of forbidding
// split messages (Figure 4(b) vs 4(a)).
func BenchmarkAblationUnsplitCost(b *testing.B) {
	p, src, targets := steadystate.PaperFig2()
	sol := mustSolve(b, p, steadystate.ScatterSpec(src, targets...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := sol.Schedule()
		if err != nil {
			b.Fatal(err)
		}
		un := sched.Unsplit()
		blowup, _ := new(big.Rat).Quo(un.Period, sched.Period).Float64()
		b.ReportMetric(blowup, "period-blowup")
	}
}
