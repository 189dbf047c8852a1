package reduce_test

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

func extractFig6(t *testing.T) (*reduce.Solution, *reduce.Application, []*reduce.Tree) {
	t.Helper()
	sol, _ := solveFig6(t)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	return sol, app, trees
}

func TestIntegerize(t *testing.T) {
	sol, _ := solveFig6(t)
	app := sol.Integerize()
	if app.Period.Sign() <= 0 {
		t.Fatal("period must be positive")
	}
	// Ops = TP·T; with TP = 1, Ops == Period.
	if app.Ops.Cmp(app.Period) != 0 {
		t.Errorf("Ops = %s, want %s (TP=1)", app.Ops, app.Period)
	}
	for k, v := range app.Sends {
		if v.Sign() <= 0 {
			t.Errorf("non-positive integer send %v", k)
		}
	}
	for k, v := range app.Tasks {
		if v.Sign() <= 0 {
			t.Errorf("non-positive integer task %v", k)
		}
	}
}

// TestPaperFig7TreeExtraction mirrors the paper's Figure 7: the Fig-6
// solution decomposes into a small family of reduction trees whose weights
// sum to the per-period operation count (the paper finds two trees with
// throughputs 1/3 and 2/3 of TP).
func TestPaperFig7TreeExtraction(t *testing.T) {
	sol, app, trees := extractFig6(t)
	if len(trees) == 0 {
		t.Fatal("no trees extracted")
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Fatalf("VerifyDecomposition: %v", err)
	}
	for i, tree := range trees {
		if err := tree.Validate(sol.Problem); err != nil {
			t.Errorf("tree %d invalid: %v", i, err)
		}
	}
	// Polynomial count (Theorem 1 allows ≤ 2n⁴; here it must be tiny).
	if len(trees) > 6 {
		t.Errorf("extracted %d trees, expected a handful (paper: 2)", len(trees))
	}
	total := new(big.Int)
	for _, tree := range trees {
		total.Add(total, tree.Weight)
	}
	if total.Cmp(app.Ops) != 0 {
		t.Errorf("tree weights sum to %s, want %s", total, app.Ops)
	}
	for _, tree := range trees {
		t.Log("\n" + tree.String(sol.Problem))
	}
}

func TestTreeActionsListing(t *testing.T) {
	sol, _, trees := extractFig6(t)
	for _, tree := range trees {
		comms := tree.Communications()
		comps := tree.Computations()
		if len(comps) != sol.Problem.N() {
			t.Errorf("tree has %d tasks, want N=%d (one merge per non-leaf)", len(comps), sol.Problem.N())
		}
		// Every communication must reference an existing edge.
		for _, c := range comms {
			if _, ok := sol.Problem.Platform.FindEdge(c.From, c.To); !ok {
				t.Errorf("communication over missing edge %v", c)
			}
		}
	}
}

func TestTreeValidateRejectsBadTrees(t *testing.T) {
	p, order, target := topology.PaperFig6()
	pr, _ := reduce.NewProblem(p, order, target)

	// Wrong root range.
	bad := &reduce.Tree{Weight: big.NewInt(1), Root: &reduce.TreeNode{Range: reduce.Range{0, 1}, At: target, Kind: reduce.Leaf}}
	if err := bad.Validate(pr); err == nil {
		t.Error("wrong root accepted")
	}
	// Leaf on the wrong node.
	bad2 := &reduce.Tree{Weight: big.NewInt(1), Root: &reduce.TreeNode{
		Range: reduce.Range{0, 2}, At: target, Kind: reduce.Compute, Task: reduce.Task{0, 0, 2},
		Left:  &reduce.TreeNode{Range: reduce.Range{0, 0}, At: order[1], Kind: reduce.Leaf}, // v0 owned by order[0]
		Right: &reduce.TreeNode{Range: reduce.Range{1, 2}, At: target, Kind: reduce.Leaf},   // not a leaf range
	}}
	if err := bad2.Validate(pr); err == nil {
		t.Error("bad leaf accepted")
	}
	// Transfer over a missing edge.
	q := graph.New()
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	c := q.AddNode("c", rat.One())
	q.AddLink(a, b, rat.One())
	q.AddLink(b, c, rat.One())
	qr, _ := reduce.NewProblem(q, []graph.NodeID{a, c}, a)
	badEdge := &reduce.Tree{Weight: big.NewInt(1), Root: &reduce.TreeNode{
		Range: reduce.Range{0, 1}, At: a, Kind: reduce.Compute, Task: reduce.Task{0, 0, 1},
		Left: &reduce.TreeNode{Range: reduce.Range{0, 0}, At: a, Kind: reduce.Leaf},
		Right: &reduce.TreeNode{Range: reduce.Range{1, 1}, At: a, Kind: reduce.Receive,
			From: &reduce.TreeNode{Range: reduce.Range{1, 1}, At: c, Kind: reduce.Leaf}}, // no edge c→a
	}}
	if err := badEdge.Validate(qr); err == nil {
		t.Error("missing-edge transfer accepted")
	}
}

func TestExtractTreesTwoNode(t *testing.T) {
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, _ := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	sol, _ := solve(t, pr)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	if err := trees[0].Validate(pr); err != nil {
		t.Errorf("tree invalid: %v", err)
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Errorf("decomposition: %v", err)
	}
}

func TestExtractTreesChain(t *testing.T) {
	p := topology.Chain(4, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		order = append(order, p.MustLookup(name))
	}
	pr, _ := reduce.NewProblem(p, order, order[0])
	sol, _ := solve(t, pr)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Errorf("decomposition: %v", err)
	}
	for i, tree := range trees {
		if err := tree.Validate(pr); err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
}

func TestApproximateFixedPeriod(t *testing.T) {
	sol, app, trees := extractFig6(t)
	_ = sol
	for _, fixed := range []int64{1, 2, 5, 10, 100} {
		plan, err := reduce.ApproximateFixedPeriod(app, trees, big.NewInt(fixed))
		if err != nil {
			t.Fatalf("ApproximateFixedPeriod(%d): %v", fixed, err)
		}
		if plan.Loss.Sign() < 0 {
			t.Errorf("fixed=%d: negative loss", fixed)
		}
		bound := rat.New(int64(len(trees)), fixed)
		if plan.Loss.Cmp(bound) > 0 {
			t.Errorf("fixed=%d: loss %s > bound %s", fixed, plan.Loss.RatString(), bound.RatString())
		}
	}
	// Loss must vanish as the fixed period grows (Proposition 4).
	plan, err := reduce.ApproximateFixedPeriod(app, trees, big.NewInt(1000000))
	if err != nil {
		t.Fatal(err)
	}
	if rat.Less(rat.New(1, 100), rat.Sub(rat.One(), rat.Div(plan.Throughput, rat.One()))) {
		t.Errorf("throughput at T_fixed=1e6 is %s, want within 1%% of 1", plan.Throughput.RatString())
	}
}

func TestApproximateFixedPeriodValidation(t *testing.T) {
	_, app, trees := extractFig6(t)
	if _, err := reduce.ApproximateFixedPeriod(app, trees, big.NewInt(0)); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := reduce.ApproximateFixedPeriod(app, trees, nil); err == nil {
		t.Error("nil period accepted")
	}
}

func TestTreeStringRendering(t *testing.T) {
	sol, _, trees := extractFig6(t)
	out := trees[0].String(sol.Problem)
	for _, want := range []string{"reduction tree", "cons T[", "initial value"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, out)
		}
	}
}
