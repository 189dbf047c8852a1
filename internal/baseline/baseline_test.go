package baseline

import (
	"context"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// solve solves one member on its own: a one-member composite, the single
// LP path.
func solve(t *testing.T, p *graph.Platform, mem composite.Member) *composite.MemberSolution {
	t.Helper()
	cp, err := composite.NewProblem(p, []composite.Member{mem})
	if err != nil {
		t.Fatalf("composite.NewProblem: %v", err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol.Members[0]
}

func TestSinglePathScatterFig2(t *testing.T) {
	p, src, targets := topology.PaperFig2()
	res, err := SinglePathScatter(p, src, targets)
	if err != nil {
		t.Fatalf("SinglePathScatter: %v", err)
	}
	// Both routes leave through Ps's single port (1 each): out load = 2,
	// TP = 1/2. On this toy platform the single-path baseline matches
	// the LP optimum (the source port binds either way).
	if !rat.Eq(res.Throughput, rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2", res.Throughput.RatString())
	}
	if res.Makespan.Sign() <= 0 {
		t.Error("makespan must be positive")
	}
	if len(res.Routes) != 2 {
		t.Errorf("routes = %d, want 2", len(res.Routes))
	}
}

func TestSinglePathScatterErrors(t *testing.T) {
	p, src, _ := topology.PaperFig2()
	if _, err := SinglePathScatter(p, src, nil); err == nil {
		t.Error("no targets should fail")
	}
	q := graph.New()
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	q.AddEdge(b, a, rat.One())
	if _, err := SinglePathScatter(q, a, []graph.NodeID{b}); err == nil {
		t.Error("unreachable target should fail")
	}
}

// TestLPBeatsSinglePath builds a platform where multipath routing wins:
// the LP must strictly beat the single-path baseline.
func TestLPBeatsSinglePath(t *testing.T) {
	p := graph.New()
	s := p.AddNode("s", rat.One())
	a := p.AddRouter("a")
	b := p.AddRouter("b")
	d := p.AddNode("d", rat.One())
	p.AddEdge(s, a, rat.Int(3))
	p.AddEdge(s, b, rat.One())
	p.AddEdge(a, d, rat.One())
	p.AddEdge(b, d, rat.Int(3))

	base, err := SinglePathScatter(p, s, []graph.NodeID{d})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pr, _ := scatter.NewProblem(p, s, []graph.NodeID{d})
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	if sol.Throughput().Cmp(base.Throughput) <= 0 {
		t.Errorf("LP TP %s should strictly beat single-path TP %s",
			sol.Throughput().RatString(), base.Throughput.RatString())
	}
	// Single path: either route costs 4 per op on the binding port:
	// TP = 1/4 (out 1+3 = 4 on s for path via a? path via a: out(s) = 3,
	// in(d) = 1 → max 3 … min-cost path is via a or b (both cost 4);
	// check it's exactly 1/3 or 1/4 depending on tie-break, and LP = 1/2.
	if !rat.Eq(sol.Throughput(), rat.New(1, 2)) {
		t.Errorf("LP TP = %s, want 1/2", sol.Throughput().RatString())
	}
}

func TestFlatReduceTreeTwoNodes(t *testing.T) {
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, _ := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	res, err := FlatReduceTree(pr)
	if err != nil {
		t.Fatalf("FlatReduceTree: %v", err)
	}
	// One transfer (P1→P0, time 1) + one task at P0 (time 1): max load 1
	// → TP = 1, same as the LP optimum on this trivial platform.
	if !rat.Eq(res.Throughput, rat.One()) {
		t.Errorf("TP = %s, want 1", res.Throughput.RatString())
	}
}

func TestBinaryReduceTreeValidates(t *testing.T) {
	p, order, target := topology.PaperFig6()
	pr, _ := reduce.NewProblem(p, order, target)
	res, err := BinaryReduceTree(pr)
	if err != nil {
		t.Fatalf("BinaryReduceTree: %v", err)
	}
	if err := res.Tree.Validate(pr); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
	if res.Throughput.Sign() <= 0 {
		t.Error("throughput must be positive")
	}
}

// TestLPBeatsSingleTreeOnFig9 is the headline comparison: on the paper's
// heterogeneous platform, the LP steady-state schedule (which mixes
// multiple reduction trees) must beat (or match) the best fixed-tree
// baselines.
func TestLPBeatsSingleTreeOnFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("large LP in -short mode")
	}
	p, order, target := topology.PaperFig9()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	size := topology.PaperFig9MessageSize()
	pr.SizeOf = func(reduce.Range) rat.Rat { return size }

	flat, err := FlatReduceTree(pr)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	bin, err := BinaryReduceTree(pr)
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*reduce.Solution)
	t.Logf("fig9 throughputs: LP=%s (~%.4f)  flat=%s (~%.4f)  binary=%s (~%.4f)",
		sol.TP.RatString(), rat.Float(sol.TP),
		flat.Throughput.RatString(), rat.Float(flat.Throughput),
		bin.Throughput.RatString(), rat.Float(bin.Throughput))
	if sol.TP.Cmp(flat.Throughput) < 0 {
		t.Errorf("LP %s below flat-tree baseline %s", sol.TP.RatString(), flat.Throughput.RatString())
	}
	if sol.TP.Cmp(bin.Throughput) < 0 {
		t.Errorf("LP %s below binary-tree baseline %s", sol.TP.RatString(), bin.Throughput.RatString())
	}
}

func TestTreeThroughputMatchesHandComputation(t *testing.T) {
	// Chain P0–P1 with slow link (cost 3): flat tree ships v[1,1] in 3
	// time units (binding) and computes in 1 → TP = 1/3.
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.Int(3))
	pr, _ := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	res, err := FlatReduceTree(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !rat.Eq(res.Throughput, rat.New(1, 3)) {
		t.Errorf("TP = %s, want 1/3", res.Throughput.RatString())
	}
}
