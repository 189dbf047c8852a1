// Benchmarks regenerating every experimental artifact of the paper, one
// bench per figure/proposition. Run with:
//
//	go test -bench=. -benchmem
//
// The benches assert the paper's exact values where they are exact (Fig 2
// TP = 1/2, Fig 6 TP = 1) so a regression fails loudly rather than
// reporting wrong science fast.
package steadystate_test

import (
	"fmt"
	"math/big"
	"testing"

	steadystate "repro"
	"repro/internal/topology"
)

func requireRat(b *testing.B, got steadystate.Rat, want string, what string) {
	b.Helper()
	if got.RatString() != want {
		b.Fatalf("%s = %s, want %s", what, got.RatString(), want)
	}
}

// BenchmarkFig2ScatterToy solves the paper's toy scatter LP (Figure 2):
// TP must be exactly 1/2.
func BenchmarkFig2ScatterToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, src, targets := steadystate.PaperFig2()
		sol := mustSolve(b, p, steadystate.ScatterSpec(src, targets...))
		requireRat(b, sol.Throughput(), "1/2", "Fig2 TP")
	}
}

// BenchmarkFig3Matchings decomposes the Fig-2 period into one-port-safe
// matchings (Figure 3: the paper finds 4).
func BenchmarkFig3Matchings(b *testing.B) {
	p, src, targets := steadystate.PaperFig2()
	sol := mustSolve(b, p, steadystate.ScatterSpec(src, targets...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := sol.Schedule()
		if err != nil {
			b.Fatal(err)
		}
		if len(sched.Slots) == 0 || len(sched.Slots) > 10 {
			b.Fatalf("slots = %d, want a handful", len(sched.Slots))
		}
	}
}

// BenchmarkFig4Schedule builds both Figure-4 schedules: split messages at
// the exact period and whole messages at the scaled period.
func BenchmarkFig4Schedule(b *testing.B) {
	p, src, targets := steadystate.PaperFig2()
	sol := mustSolve(b, p, steadystate.ScatterSpec(src, targets...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := sol.Schedule()
		if err != nil {
			b.Fatal(err)
		}
		un := sched.Unsplit()
		if un.HasSplitMessages() {
			b.Fatal("unsplit schedule still splits messages")
		}
		if err := un.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ReductionTree builds and validates the single fixed
// reduction tree of Figure 5 (the flat 3-processor example) via the
// baseline tree builder.
func BenchmarkFig5ReductionTree(b *testing.B) {
	p, order, target := steadystate.PaperFig6()
	pr, err := steadystate.NewReduceProblem(p, order, target)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := steadystate.FlatReduceTree(pr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Throughput.Sign() <= 0 {
			b.Fatal("non-positive baseline throughput")
		}
	}
}

// BenchmarkFig6ReduceToy solves the paper's toy reduce LP (Figure 6):
// TP must be exactly 1.
func BenchmarkFig6ReduceToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, order, target := steadystate.PaperFig6()
		sol := mustSolve(b, p, steadystate.ReduceSpec(order, target))
		requireRat(b, sol.Throughput(), "1", "Fig6 TP")
	}
}

// BenchmarkFig7TreeExtraction extracts the reduction-tree family of the
// Fig-6 solution (Figure 7: the paper finds trees of weight 1/3 and 2/3).
func BenchmarkFig7TreeExtraction(b *testing.B) {
	p, order, target := steadystate.PaperFig6()
	sol := mustSolve(b, p, steadystate.ReduceSpec(order, target)).Unwrap().(*steadystate.ReduceSolution)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := sol.Integerize()
		trees, err := app.ExtractTrees()
		if err != nil {
			b.Fatal(err)
		}
		if err := steadystate.VerifyTreeDecomposition(app, trees); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPivots reports the LP pivot count of a solve as a benchmark
// metric, outside the timed region (a reduce report extracts trees).
func reportPivots(b *testing.B, sol steadystate.Solution) {
	b.StopTimer()
	defer b.StartTimer()
	rep, err := sol.Report()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rep.LPPivots), "pivots")
}

func fig9Problem(b *testing.B) *steadystate.ReduceProblem {
	b.Helper()
	p, order, target := steadystate.PaperFig9()
	pr, err := steadystate.NewReduceProblem(p, order, target)
	if err != nil {
		b.Fatal(err)
	}
	size := steadystate.PaperFig9MessageSize()
	pr.SizeOf = func(steadystate.ReduceRange) steadystate.Rat { return size }
	return pr
}

// BenchmarkFig9TiersReduce solves the paper's headline experiment: the
// full SSR LP on the 14-node Tiers platform (paper: TP = 2/9 on its
// original bandwidth draws).
func BenchmarkFig9TiersReduce(b *testing.B) {
	pr := fig9Problem(b)
	for i := 0; i < b.N; i++ {
		sol, stats := solveReduceProblem(b, pr)
		if sol.Throughput().Sign() <= 0 {
			b.Fatal("TP must be positive")
		}
		b.ReportMetric(float64(stats.Pivots), "pivots")
	}
}

// BenchmarkFig11TreeExtraction extracts the Fig-9 reduction trees
// (Figures 11–12: the paper finds two of weight 1/9 each).
func BenchmarkFig11TreeExtraction(b *testing.B) {
	pr := fig9Problem(b)
	sol, _ := solveReduceProblem(b, pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := sol.Integerize()
		trees, err := app.ExtractTrees()
		if err != nil {
			b.Fatal(err)
		}
		if err := steadystate.VerifyTreeDecomposition(app, trees); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(trees)), "trees")
	}
}

// BenchmarkProp1AsymptoticScatter simulates the Section 3.4 scatter
// protocol and reports the achieved fraction of the TP·K bound.
func BenchmarkProp1AsymptoticScatter(b *testing.B) {
	p, src, targets := steadystate.PaperFig2()
	sol := mustSolve(b, p, steadystate.ScatterSpec(src, targets...))
	m, err := sol.SimModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := steadystate.Simulate(m, 1000)
		if err != nil {
			b.Fatal(err)
		}
		k := new(big.Int).Mul(big.NewInt(1000), m.Period)
		bound := new(big.Rat).Mul(sol.Throughput(), new(big.Rat).SetInt(k))
		ratio, _ := new(big.Rat).Quo(new(big.Rat).SetInt(res.MinDelivered()), bound).Float64()
		if ratio > 1 {
			b.Fatalf("ratio %f violates Lemma 1", ratio)
		}
		b.ReportMetric(ratio, "ratio")
	}
}

// BenchmarkProp3AsymptoticReduce simulates the pipelined reduce protocol.
func BenchmarkProp3AsymptoticReduce(b *testing.B) {
	p, order, target := steadystate.PaperFig6()
	sol := mustSolve(b, p, steadystate.ReduceSpec(order, target))
	m, err := sol.SimModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := steadystate.Simulate(m, 1000)
		if err != nil {
			b.Fatal(err)
		}
		k := new(big.Int).Mul(big.NewInt(1000), m.Period)
		bound := new(big.Rat).Mul(sol.Throughput(), new(big.Rat).SetInt(k))
		ratio, _ := new(big.Rat).Quo(new(big.Rat).SetInt(res.MinDelivered()), bound).Float64()
		if ratio > 1 {
			b.Fatalf("ratio %f violates Lemma 1", ratio)
		}
		b.ReportMetric(ratio, "ratio")
	}
}

// BenchmarkProp4FixedPeriod sweeps the Section 4.6 truncation on the
// Fig-9 trees and reports the worst observed loss·T_fixed (must stay ≤
// card(Trees)).
func BenchmarkProp4FixedPeriod(b *testing.B) {
	pr := fig9Problem(b)
	sol, _ := solveReduceProblem(b, pr)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for _, fixed := range []int64{5, 10, 50, 100, 1000} {
			plan, err := steadystate.ApproximateFixedPeriod(app, trees, big.NewInt(fixed))
			if err != nil {
				b.Fatal(err)
			}
			scaled, _ := new(big.Rat).Mul(plan.Loss, big.NewRat(fixed, 1)).Float64()
			if scaled > worst {
				worst = scaled
			}
		}
		if worst > float64(len(trees)) {
			b.Fatalf("loss bound violated: %f > %d", worst, len(trees))
		}
		b.ReportMetric(worst, "worst-loss×T")
	}
}

// BenchmarkGossipTiers solves the Section 3.5 gossip LP on a Tiers
// platform (experiment X1).
func BenchmarkGossipTiers(b *testing.B) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(17))
	parts := p.Participants()
	for i := 0; i < b.N; i++ {
		sol := mustSolve(b, p, steadystate.GossipSpec(parts[:3], parts[len(parts)-3:]))
		if sol.Throughput().Sign() <= 0 {
			b.Fatal("TP must be positive")
		}
	}
}

// BenchmarkPrefixToy solves the Section 6 parallel-prefix extension on the
// Fig-6 triangle (experiment X2).
func BenchmarkPrefixToy(b *testing.B) {
	p, order, _ := steadystate.PaperFig6()
	for i := 0; i < b.N; i++ {
		sol := mustSolve(b, p, steadystate.PrefixSpec(order...))
		if sol.Throughput().Sign() <= 0 {
			b.Fatal("TP must be positive")
		}
	}
}

// BenchmarkBaselineScatter compares the LP against the single-path
// baseline on a multipath platform (experiment B1, scatter side) and
// reports the speedup.
func BenchmarkBaselineScatter(b *testing.B) {
	p := steadystate.NewPlatform()
	s := p.AddNode("s", steadystate.R(1, 1))
	a := p.AddRouter("a")
	c := p.AddRouter("b")
	d := p.AddNode("d", steadystate.R(1, 1))
	p.AddEdge(s, a, steadystate.R(3, 1))
	p.AddEdge(s, c, steadystate.R(1, 1))
	p.AddEdge(a, d, steadystate.R(1, 1))
	p.AddEdge(c, d, steadystate.R(3, 1))
	for i := 0; i < b.N; i++ {
		sol := mustSolve(b, p, steadystate.ScatterSpec(s, d))
		base, err := steadystate.SinglePathScatter(p, s, []steadystate.NodeID{d})
		if err != nil {
			b.Fatal(err)
		}
		speedup, _ := new(big.Rat).Quo(sol.Throughput(), base.Throughput).Float64()
		if speedup < 1 {
			b.Fatalf("LP lost to baseline: %f", speedup)
		}
		b.ReportMetric(speedup, "speedup")
	}
}

// BenchmarkBaselineReduce compares the LP against fixed-tree baselines on
// the Fig-9 platform (experiment B1, reduce side).
func BenchmarkBaselineReduce(b *testing.B) {
	pr := fig9Problem(b)
	sol, _ := solveReduceProblem(b, pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat, err := steadystate.FlatReduceTree(pr)
		if err != nil {
			b.Fatal(err)
		}
		bin, err := steadystate.BinaryReduceTree(pr)
		if err != nil {
			b.Fatal(err)
		}
		best := flat.Throughput
		if bin.Throughput.Cmp(best) > 0 {
			best = bin.Throughput
		}
		if sol.Throughput().Cmp(best) < 0 {
			b.Fatal("LP lost to a fixed tree")
		}
		speedup, _ := new(big.Rat).Quo(sol.Throughput(), best).Float64()
		b.ReportMetric(speedup, "speedup")
	}
}

// BenchmarkScalingScatter sweeps the scatter LP over growing Tiers
// platforms (experiment S1).
func BenchmarkScalingScatter(b *testing.B) {
	for _, lans := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("lans=%d", lans), func(b *testing.B) {
			cfg := steadystate.DefaultTiersConfig(7)
			cfg.LANs = lans
			p := steadystate.Tiers(cfg)
			parts := p.Participants()
			for i := 0; i < b.N; i++ {
				reportPivots(b, mustSolve(b, p, steadystate.ScatterSpec(parts[0], parts[1:]...)))
			}
		})
	}
}

// BenchmarkScalingReduce sweeps the reduce LP over growing chains
// (experiment S1).
func BenchmarkScalingReduce(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := topology.Chain(n, steadystate.R(1, 2), steadystate.R(1, 1))
			var order []steadystate.NodeID
			for _, node := range p.Nodes() {
				order = append(order, node.ID)
			}
			for i := 0; i < b.N; i++ {
				reportPivots(b, mustSolve(b, p, steadystate.ReduceSpec(order, order[0])))
			}
		})
	}
}
