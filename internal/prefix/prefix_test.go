package prefix_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/prefix"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

// solve solves one prefix or reduce problem on its own: a one-member
// composite, the single LP path.
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

func TestTwoNodePrefix(t *testing.T) {
	// P0 – P1, unit everything. Rank 0's prefix v[0,0] is already local;
	// rank 1 needs v[0,1]: either P0 ships v[0,0] to P1 (1 time unit out
	// of P0) and P1 merges, or P1 ships v[1,1] to P0, P0 merges and ships
	// v[0,1] back. TP = 1 (ports allow one message each way per unit).
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, err := prefix.NewProblem(p, []graph.NodeID{a, b})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*prefix.Solution)
	if !rat.Eq(sol.TP, rat.One()) {
		t.Errorf("TP = %s, want 1", sol.TP.RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestPrefixOnFig6Triangle(t *testing.T) {
	p, order, _ := topology.PaperFig6()
	pr, err := prefix.NewProblem(p, order)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*prefix.Solution)
	if sol.TP.Sign() <= 0 {
		t.Fatal("TP must be positive")
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// A prefix needs strictly more work than a reduce to the same nodes
	// (every rank is a delivery), so TP_prefix ≤ TP_reduce.
	rpr, _ := reduce.NewProblem(p, order, order[0])
	rsol := solve(t, p, composite.Member{Weight: rat.One(), Problem: rpr}).Part.(*reduce.Solution)
	if sol.TP.Cmp(rsol.TP) > 0 {
		t.Errorf("prefix TP %s exceeds reduce TP %s", sol.TP.RatString(), rsol.TP.RatString())
	}
	t.Logf("fig6 triangle: prefix TP=%s, reduce TP=%s", sol.TP.RatString(), rsol.TP.RatString())
}

func TestPrefixValidation(t *testing.T) {
	p, order, _ := topology.PaperFig6()
	if _, err := prefix.NewProblem(p, order[:1]); err == nil {
		t.Error("single participant should fail")
	}
	if _, err := prefix.NewProblem(p, []graph.NodeID{order[0], order[0]}); err == nil {
		t.Error("duplicate participant should fail")
	}
	q := graph.New()
	r := q.AddRouter("r")
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	q.AddLink(a, b, rat.One())
	q.AddLink(b, r, rat.One())
	if _, err := prefix.NewProblem(q, []graph.NodeID{a, r}); err == nil {
		t.Error("router participant should fail")
	}
	// One-directional chain fails rank reachability (rank 0 must reach
	// rank 1, not vice versa — build the failing direction).
	u := graph.New()
	x := u.AddNode("x", rat.One())
	y := u.AddNode("y", rat.One())
	u.AddEdge(y, x, rat.One()) // only y→x
	if _, err := prefix.NewProblem(u, []graph.NodeID{x, y}); err == nil {
		t.Error("rank-unreachable order should fail")
	}
	// The reverse order works: rank 0 = y can reach rank 1 = x.
	if _, err := prefix.NewProblem(u, []graph.NodeID{y, x}); err != nil {
		t.Errorf("reverse order should validate: %v", err)
	}
}

func TestPrefixChain(t *testing.T) {
	p := topology.Chain(3, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2"} {
		order = append(order, p.MustLookup(name))
	}
	pr, err := prefix.NewProblem(p, order)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*prefix.Solution)
	if sol.TP.Sign() <= 0 {
		t.Error("TP must be positive")
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if sol.Period().Sign() <= 0 {
		t.Error("period must be positive")
	}
}

func TestPrefixString(t *testing.T) {
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, _ := prefix.NewProblem(p, []graph.NodeID{a, b})
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*prefix.Solution)
	if !strings.Contains(sol.String(), "prefix throughput") {
		t.Errorf("String:\n%s", sol.String())
	}
}

func TestPrefixVerifyCatchesTampering(t *testing.T) {
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, _ := prefix.NewProblem(p, []graph.NodeID{a, b})
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*prefix.Solution)
	sol.TP = rat.Add(sol.TP, rat.One())
	if err := sol.Verify(); err == nil {
		t.Error("Verify accepted inflated TP")
	}
}

// TestPrefixVerifyRejectsTaskOnRouter: a task at a node that cannot
// compute is reported before its task time is evaluated — a router's zero
// speed has none.
func TestPrefixVerifyRejectsTaskOnRouter(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	r := p.AddRouter("r")
	b := p.AddNode("b", rat.One())
	p.AddLink(a, r, rat.One())
	p.AddLink(r, b, rat.One())
	pr, err := prefix.NewProblem(p, []graph.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sol := &prefix.Solution{
		Problem: pr,
		TP:      rat.One(),
		Sends:   map[reduce.SendKey]rat.Rat{},
		Tasks:   map[reduce.TaskKey]rat.Rat{{Node: r, T: reduce.Task{K: 0, L: 0, M: 1}}: rat.One()},
	}
	err = sol.Verify()
	if err == nil || !strings.Contains(err.Error(), "task on non-computing node r") {
		t.Errorf("Verify = %v, want a task on non-computing node r", err)
	}
}
