// Command paperbench regenerates every experimental artifact of the paper
// (Legrand/Marchal/Robert, IPPS 2004) as text tables: the figure-by-figure
// results, the asymptotic-optimality convergence of Propositions 1 and 3,
// the fixed-period approximation sweep of Section 4.6, baseline
// comparisons, solver scaling, and solver-session reuse. Each experiment
// prints the paper's value next to the measured one.
//
// Usage:
//
//	paperbench                      # run everything
//	paperbench -run fig9            # run one experiment (fig2|fig3|fig4|fig6|fig7|fig9|prop1|prop3|prop4|gossip|prefix|rscatter|bcast|allreduce|baseline|scaling|session)
//	paperbench -timeout 30s         # bound every solve with a deadline
//
// To solve one scenario file (cmd/topogen -spec) and write its report
// JSON, use cmd/sscollect -platform work.json -report report.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	steadystate "repro"
	"repro/internal/topology"
)

// out is the report destination; tests point it at a buffer.
var out io.Writer = os.Stdout

// ctx bounds every solve of the harness; -timeout installs a deadline.
var ctx = context.Background()

func main() {
	run := flag.String("run", "", "run a single experiment by id (default: all)")
	timeout := flag.Duration("timeout", 0, "deadline for every solve (0: none)")
	flag.Parse()

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	experiments := []struct {
		id string
		fn func()
	}{
		{"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4}, {"fig6", fig6},
		{"fig7", fig7}, {"fig9", fig9}, {"prop1", prop1}, {"prop3", prop3},
		{"prop4", prop4}, {"gossip", gossipExp}, {"prefix", prefixExp},
		{"rscatter", reduceScatterExp}, {"bcast", broadcastExp}, {"allreduce", allreduceExp},
		{"baseline", baselineExp}, {"scaling", scaling}, {"session", sessionExp},
	}
	any := false
	for _, e := range experiments {
		if *run != "" && e.id != *run {
			continue
		}
		any = true
		banner(e.id)
		start := time.Now()
		e.fn()
		fmt.Fprintf(out, "[%s done in %v]\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !any {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *run)
		os.Exit(1)
	}
}

func banner(id string) {
	fmt.Fprintf(out, "\n===== %s =====\n", strings.ToUpper(id))
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	return v
}

func f(r steadystate.Rat) float64 {
	v, _ := r.Float64()
	return v
}

// fig2: toy scatter — paper reports TP = 1/2 with multi-route m0.
func fig2() {
	p, src, targets := steadystate.PaperFig2()
	sol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
	fmt.Fprintf(out, "paper: TP = 1/2 (one scatter every two time units)\n")
	fmt.Fprintf(out, "ours:  TP = %s\n", sol.Throughput().RatString())
	fmt.Fprint(out, sol.String())
}

// fig3: the bipartite matchings of the Fig-2 period — paper finds 4.
func fig3() {
	p, src, targets := steadystate.PaperFig2()
	sol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
	sched := must(sol.Schedule())
	fmt.Fprintf(out, "paper: 4 matchings tile the period\n")
	fmt.Fprintf(out, "ours:  %d matchings, busy %s of period %s\n",
		len(sched.Slots), sched.BusyTime().RatString(), sched.Period.RatString())
}

// fig4: the concrete schedules — split (exact period) and unsplit.
func fig4() {
	p, src, targets := steadystate.PaperFig2()
	sol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
	sched := must(sol.Schedule())
	fmt.Fprintf(out, "paper: period 12 with split messages; period 48 without\n")
	fmt.Fprintf(out, "ours (split allowed, period %s):\n%s", sched.Period.RatString(), sched.Gantt())
	un := sched.Unsplit()
	fmt.Fprintf(out, "ours (no splits, period %s):\n%s", un.Period.RatString(), un.Gantt())
}

// fig6: toy reduce — paper reports TP = 1 (period 3, three ops).
func fig6() {
	p, order, target := steadystate.PaperFig6()
	sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target)))
	rep := must(sol.Report())
	fmt.Fprintf(out, "paper: TP = 1 (three reduces every three time units)\n")
	fmt.Fprintf(out, "ours:  TP = %s  (LP: %d vars, %d constraints, %d pivots)\n",
		rep.Throughput, rep.LPVars, rep.LPConstraints, rep.LPPivots)
	fmt.Fprint(out, sol.String())
}

// fig7: reduction trees of the Fig-6 solution — paper finds two (1/3, 2/3).
func fig7() {
	p, order, target := steadystate.PaperFig6()
	sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target)))
	app, trees, err := sol.(steadystate.Certified).Certificate()
	must(0, err)
	fmt.Fprintf(out, "paper: 2 trees with throughputs 1/3 and 2/3\n")
	fmt.Fprintf(out, "ours:  %d tree(s) covering %s ops per period %s\n",
		len(trees), app.Ops.String(), app.Period.String())
	pr := sol.Unwrap().(*steadystate.ReduceSolution).Problem
	for _, tr := range trees {
		fmt.Fprint(out, tr.String(pr))
	}
}

// fig9: the Tiers experiment — paper reports TP = 2/9 and two trees.
func fig9() {
	p, order, target := steadystate.PaperFig9()
	start := time.Now()
	sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target),
		steadystate.WithMessageSize(steadystate.PaperFig9MessageSize())))
	solveTime := time.Since(start) // LP solve only: Report() would add tree extraction
	rep := must(sol.Report())
	fmt.Fprintf(out, "paper: TP = 2/9 ≈ 0.2222 (exact bandwidths not recoverable; see topology.PaperFig9)\n")
	fmt.Fprintf(out, "ours:  TP = %s ≈ %.4f  (LP: %d vars, %d constraints, %d pivots, %v)\n",
		rep.Throughput, rep.ThroughputFloat,
		rep.LPVars, rep.LPConstraints, rep.LPPivots, solveTime.Round(time.Millisecond))
	app, trees, err := sol.(steadystate.Certified).Certificate()
	must(0, err)
	fmt.Fprintf(out, "paper: 2 reduction trees of weight 1/9 each (figs 11-12)\n")
	fmt.Fprintf(out, "ours:  %d reduction tree(s), weights:", len(trees))
	for _, tr := range trees {
		fmt.Fprintf(out, " %s/%s", tr.Weight.String(), app.Period.String())
	}
	fmt.Fprintln(out)
	pr := sol.Unwrap().(*steadystate.ReduceSolution).Problem
	for i, tr := range trees {
		fmt.Fprintf(out, "--- tree %d ---\n%s", i+1, tr.String(pr))
	}
}

// prop1: asymptotic optimality of the scatter protocol.
func prop1() {
	p, src, targets := steadystate.PaperFig2()
	sol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
	m := must(sol.SimModel())
	convergenceTable(m, sol.Throughput())
}

// prop3: asymptotic optimality of the reduce protocol.
func prop3() {
	p, order, target := steadystate.PaperFig6()
	sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target)))
	m := must(sol.SimModel())
	convergenceTable(m, sol.Throughput())
}

// convergenceTable simulates the buffered protocol and reports the
// delivered/bound ratio converging to 1.
func convergenceTable(m *steadystate.SimModel, tp steadystate.Rat) {
	fmt.Fprintf(out, "%-10s %-14s %-14s %s\n", "periods", "delivered", "bound TP*K", "ratio")
	for _, periods := range []int{10, 50, 100, 500, 1000, 5000} {
		res := must(steadystate.Simulate(m, periods))
		k := new(big.Int).Mul(big.NewInt(int64(periods)), m.Period)
		bound := new(big.Rat).Mul(tp, new(big.Rat).SetInt(k))
		ratio := new(big.Rat).Quo(new(big.Rat).SetInt(res.MinDelivered()), bound)
		fmt.Fprintf(out, "%-10d %-14s %-14s %.6f\n", periods, res.MinDelivered(), bound.RatString(), f(ratio))
	}
}

// prop4: fixed-period truncation sweep on the Fig-9 trees.
func prop4() {
	p, order, target := steadystate.PaperFig9()
	sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target),
		steadystate.WithMessageSize(steadystate.PaperFig9MessageSize())))
	app, trees, err := sol.(steadystate.Certified).Certificate()
	must(0, err)
	fmt.Fprintf(out, "TP = %s, %d trees, exact period %s\n", sol.Throughput().RatString(), len(trees), app.Period.String())
	fmt.Fprintf(out, "%-10s %-16s %-16s %s\n", "T_fixed", "throughput", "loss", "bound card/T")
	for _, fixed := range []int64{5, 10, 50, 100, 1000, 10000} {
		plan := must(steadystate.ApproximateFixedPeriod(app, trees, big.NewInt(fixed)))
		bound := big.NewRat(int64(len(trees)), fixed)
		fmt.Fprintf(out, "%-10d %-16s %-16s %s\n", fixed,
			plan.Throughput.RatString(), plan.Loss.RatString(), bound.RatString())
	}
}

// gossipExp: the Section 3.5 gossip LP on a Tiers platform.
func gossipExp() {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(17))
	parts := p.Participants()
	sol := must(steadystate.Solve(ctx, p, steadystate.GossipSpec(parts[:3], parts[len(parts)-3:])))
	rep := must(sol.Report())
	fmt.Fprintf(out, "tiers 3x3 gossip: TP = %s ≈ %.5f (LP %d vars, %d constraints)\n",
		rep.Throughput, rep.ThroughputFloat, rep.LPVars, rep.LPConstraints)
	sched := must(sol.Schedule())
	fmt.Fprintf(out, "schedule: %d slots, busy %s of period %s\n",
		len(sched.Slots), sched.BusyTime().RatString(), sched.Period.RatString())
}

// prefixExp: the Section 6 extension on the Fig-6 triangle.
func prefixExp() {
	p, order, _ := steadystate.PaperFig6()
	sol := must(steadystate.Solve(ctx, p, steadystate.PrefixSpec(order...)))
	fmt.Fprintf(out, "fig6 triangle parallel prefix: TP = %s\n", sol.Throughput().RatString())
	fmt.Fprint(out, sol.String())
}

// reduceScatterExp: concurrent collectives — reduce-scatter as N reduces
// sharing one-port capacity, on the Fig-6 triangle and a symmetric ring.
func reduceScatterExp() {
	solveRS := func(name string, p *steadystate.Platform, order []steadystate.NodeID) {
		sol := must(steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order...)))
		must(0, sol.Verify())
		standalone := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, order[0])))
		sched := must(sol.Schedule())
		fmt.Fprintf(out, "%-16s common TP = %-8s (single reduce alone: %s)\n",
			name, sol.Throughput().RatString(), standalone.Throughput().RatString())
		fmt.Fprintf(out, "%-16s merged schedule: %d slots, busy %s of period %s\n",
			"", len(sched.Slots), sched.BusyTime().RatString(), sched.Period.RatString())
	}
	p6, order, _ := steadystate.PaperFig6()
	solveRS("fig6 triangle", p6, order)
	ring := steadystate.Ring(4, steadystate.R(1, 2), steadystate.R(1, 1))
	solveRS("ring-4", ring, ring.Participants())
}

// broadcastExp: broadcast vs scatter on the Fig-2 platform — replication
// (one copy per edge serves every target routed through it) strictly
// beats the per-target scatter streams, and a single-target broadcast
// degenerates to scatter-to-one.
func broadcastExp() {
	p, src, targets := steadystate.PaperFig2()
	bsol := must(steadystate.Solve(ctx, p, steadystate.BroadcastSpec(src, targets...)))
	must(0, bsol.Verify())
	ssol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
	fmt.Fprintf(out, "fig2 broadcast: TP = %s (scatter of distinct messages: %s, %.2fx)\n",
		bsol.Throughput().RatString(), ssol.Throughput().RatString(),
		f(new(big.Rat).Quo(bsol.Throughput(), ssol.Throughput())))
	fmt.Fprint(out, bsol.String())
	one := must(steadystate.Solve(ctx, p, steadystate.BroadcastSpec(src, targets[0])))
	oneScatter := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets[0])))
	fmt.Fprintf(out, "single-target degeneration: broadcast TP = %s, scatter-to-one TP = %s\n",
		one.Throughput().RatString(), oneScatter.Throughput().RatString())
}

// allreduceExp: allreduce on the Fig-6 triangle — the reduce-scatter
// phase composed with an allgather at a common rate, contrasted with the
// reduce-scatter alone.
func allreduceExp() {
	p, order, _ := steadystate.PaperFig6()
	sol := must(steadystate.Solve(ctx, p, steadystate.AllreduceSpec(order...)))
	must(0, sol.Verify())
	rs := must(steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order...)))
	fmt.Fprintf(out, "fig6 allreduce: TP = %s (reduce-scatter phase alone: %s)\n",
		sol.Throughput().RatString(), rs.Throughput().RatString())
	for _, member := range sol.(steadystate.Concurrent).Members() {
		rep := must(member.Report())
		fmt.Fprintf(out, "  member %-7s TP = %s\n", rep.Kind, rep.Throughput)
	}
	sched := must(sol.Schedule())
	fmt.Fprintf(out, "merged schedule: %d slots, busy %s of period %s\n",
		len(sched.Slots), sched.BusyTime().RatString(), sched.Period.RatString())
}

// baselineExp: LP vs fixed-plan baselines on the paper platforms.
func baselineExp() {
	// Scatter on Fig 2.
	{
		p, src, targets := steadystate.PaperFig2()
		lpSol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, targets...)))
		base := must(steadystate.SinglePathScatter(p, src, targets))
		fmt.Fprintf(out, "%-28s %-12s %-12s %s\n", "scatter fig2", "LP", "single-path", "LP/single")
		ratio := new(big.Rat).Quo(lpSol.Throughput(), base.Throughput)
		fmt.Fprintf(out, "%-28s %-12s %-12s %.3f\n", "", lpSol.Throughput().RatString(),
			base.Throughput.RatString(), f(ratio))
	}
	// Reduce on Fig 9.
	{
		p, order, target := steadystate.PaperFig9()
		lpSol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target),
			steadystate.WithMessageSize(steadystate.PaperFig9MessageSize())))
		// Baselines evaluate fixed plans on the same sized problem.
		pr := must(steadystate.NewReduceProblem(p, order, target))
		size := steadystate.PaperFig9MessageSize()
		pr.SizeOf = func(steadystate.ReduceRange) steadystate.Rat { return size }
		flat := must(steadystate.FlatReduceTree(pr))
		bin := must(steadystate.BinaryReduceTree(pr))
		fmt.Fprintf(out, "%-28s %-12s %-12s %-12s\n", "reduce fig9", "LP", "flat-tree", "binary-tree")
		fmt.Fprintf(out, "%-28s %-12s %-12s %-12s\n", "",
			lpSol.Throughput().RatString(), flat.Throughput.RatString(), bin.Throughput.RatString())
		fmt.Fprintf(out, "LP wins by %.2fx over flat, %.2fx over binary\n",
			f(new(big.Rat).Quo(lpSol.Throughput(), flat.Throughput)),
			f(new(big.Rat).Quo(lpSol.Throughput(), bin.Throughput)))
	}
}

// scaling: LP size and solve time as the platform grows.
func scaling() {
	fmt.Fprintf(out, "%-22s %-8s %-8s %-8s %-10s %s\n", "platform", "vars", "cons", "pivots", "time", "TP")
	for _, nLans := range []int{2, 3, 4, 5} {
		cfg := steadystate.DefaultTiersConfig(7)
		cfg.LANs = nLans
		p := steadystate.Tiers(cfg)
		parts := p.Participants()
		start := time.Now()
		sol := must(steadystate.Solve(ctx, p, steadystate.ScatterSpec(parts[0], parts[1:]...)))
		solveTime := time.Since(start)
		rep := must(sol.Report())
		fmt.Fprintf(out, "scatter-tiers-%-9d %-8d %-8d %-8d %-10v %s\n", nLans,
			rep.LPVars, rep.LPConstraints, rep.LPPivots,
			solveTime.Round(time.Millisecond), rep.Throughput)
	}
	for _, nParts := range []int{3, 4, 5, 6} {
		p := topology.Chain(nParts, steadystate.R(1, 2), steadystate.R(1, 1))
		var order []steadystate.NodeID
		for _, n := range p.Nodes() {
			order = append(order, n.ID)
		}
		start := time.Now()
		sol := must(steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, order[0])))
		solveTime := time.Since(start)
		rep := must(sol.Report())
		fmt.Fprintf(out, "reduce-chain-%-9d %-8d %-8d %-8d %-10v %s\n", nParts,
			rep.LPVars, rep.LPConstraints, rep.LPPivots,
			solveTime.Round(time.Millisecond), rep.Throughput)
	}
}

// sessionExp: a repeated-sweep workload — every participant of one Tiers
// platform scatters to three peers — solved twice: cold (fresh platform
// state per solve) and through one Solver session (shared reachability
// index). The sweep is the access pattern of paperbench itself and of the
// topology scaling runs.
func sessionExp() {
	cfg := steadystate.DefaultTiersConfig(11)
	specs := func(p *steadystate.Platform) []steadystate.Spec {
		parts := p.Participants()
		var out []steadystate.Spec
		for i := range parts {
			var targets []steadystate.NodeID
			for d := 1; d <= 3; d++ {
				targets = append(targets, parts[(i+d)%len(parts)])
			}
			out = append(out, steadystate.ScatterSpec(parts[i], targets...))
		}
		return out
	}

	runCold := func() []steadystate.Rat {
		var tps []steadystate.Rat
		for _, spec := range specs(steadystate.Tiers(cfg)) {
			// Rebuild the platform per solve: no shared state at all.
			sol := must(steadystate.Solve(ctx, steadystate.Tiers(cfg), spec))
			tps = append(tps, sol.Throughput())
		}
		return tps
	}
	p := steadystate.Tiers(cfg)
	solver := steadystate.NewSolver(p)
	runSession := func() []steadystate.Rat {
		var tps []steadystate.Rat
		for _, spec := range specs(p) {
			sol := must(solver.Solve(ctx, spec))
			tps = append(tps, sol.Throughput())
		}
		return tps
	}

	// Interleaved best-of-3: a single back-to-back pair is dominated by
	// allocator and GC noise at these solve sizes.
	var coldTPs, sessTPs []steadystate.Rat
	var cold, sess time.Duration
	for round := 0; round < 3; round++ {
		start := time.Now()
		coldTPs = runCold()
		if d := time.Since(start); round == 0 || d < cold {
			cold = d
		}
		start = time.Now()
		sessTPs = runSession()
		if d := time.Since(start); round == 0 || d < sess {
			sess = d
		}
	}

	for i, coldTP := range coldTPs {
		if coldTP.Cmp(sessTPs[i]) != 0 {
			fmt.Fprintf(out, "MISMATCH on spec %d: cold %s vs session %s\n",
				i, coldTP.RatString(), sessTPs[i].RatString())
			return
		}
	}
	fmt.Fprintf(out, "sweep of %d scatter solves on one tiers platform:\n", len(specs(p)))
	fmt.Fprintf(out, "  cold solves:    %v\n", cold.Round(time.Millisecond))
	fmt.Fprintf(out, "  solver session: %v (%.2fx)\n", sess.Round(time.Millisecond),
		float64(cold)/float64(sess))
}
