package reduce_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

// solve solves a reduce (or gather) problem on its own: a one-member
// composite, the single LP path. It returns the solution and the LP
// counters.
func solve(t *testing.T, pr *reduce.Problem) (*reduce.Solution, core.FlowStats) {
	t.Helper()
	cp, err := composite.NewProblem(pr.Platform, []composite.Member{composite.ReduceMember(pr, rat.One())})
	if err != nil {
		t.Fatalf("composite.NewProblem: %v", err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol.Members[0].Reduce, sol.Stats
}

// solveFig6 solves the paper's Figure 6 reduce and returns the solution
// and the LP counters.
func solveFig6(t *testing.T) (*reduce.Solution, core.FlowStats) {
	t.Helper()
	p, order, target := topology.PaperFig6()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return solve(t, pr)
}

func TestRangeAndTaskBasics(t *testing.T) {
	r := reduce.Range{1, 6}
	if r.String() != "v[1,6]" || r.IsLeaf() || r.Len() != 6 {
		t.Errorf("Range basics wrong: %v %v %v", r.String(), r.IsLeaf(), r.Len())
	}
	if !(reduce.Range{3, 3}).IsLeaf() {
		t.Error("v[3,3] should be a leaf")
	}
	task := reduce.Task{0, 1, 4}
	if task.String() != "T[0,1,4]" {
		t.Errorf("Task.String = %s", task.String())
	}
	if task.Left() != (reduce.Range{0, 1}) || task.Right() != (reduce.Range{2, 4}) || task.Result() != (reduce.Range{0, 4}) {
		t.Error("Task ranges wrong")
	}
}

func TestProblemEnumeration(t *testing.T) {
	p, order, target := topology.PaperFig6()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	if pr.N() != 2 {
		t.Errorf("N = %d, want 2", pr.N())
	}
	// Ranges: (N+1)(N+2)/2 = 6; tasks: C(N+2,3) = 4.
	if got := len(reduce.Ranges(pr.N())); got != 6 {
		t.Errorf("ranges = %d, want 6", got)
	}
	if got := len(reduce.Tasks(pr.N())); got != 4 {
		t.Errorf("tasks = %d, want 4", got)
	}
}

func TestNewProblemValidation(t *testing.T) {
	p, order, target := topology.PaperFig6()
	if _, err := reduce.NewProblem(p, order[:1], target); err == nil {
		t.Error("single participant should fail")
	}
	if _, err := reduce.NewProblem(p, []graph.NodeID{order[0], order[0], order[1]}, target); err == nil {
		t.Error("duplicate participant should fail")
	}

	q := graph.New()
	r := q.AddRouter("r")
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	q.AddLink(a, b, rat.One())
	q.AddLink(a, r, rat.One())
	if _, err := reduce.NewProblem(q, []graph.NodeID{a, r}, a); err == nil {
		t.Error("router participant should fail")
	}
	if _, err := reduce.NewProblem(q, []graph.NodeID{a, b}, r); err == nil {
		t.Error("router target should fail")
	}

	// Unreachable target.
	u := graph.New()
	x := u.AddNode("x", rat.One())
	y := u.AddNode("y", rat.One())
	z := u.AddNode("z", rat.One())
	u.AddEdge(x, y, rat.One())
	_ = z
	if _, err := reduce.NewProblem(u, []graph.NodeID{x, z}, y); err == nil {
		t.Error("unreachable participant should fail")
	}
}

// TestPaperFig6Throughput is the paper's toy reduce: TP must be exactly 1
// (three reduce operations every three time units).
func TestPaperFig6Throughput(t *testing.T) {
	sol, stats := solveFig6(t)
	if !rat.Eq(sol.TP, rat.One()) {
		t.Fatalf("TP = %s, want exactly 1", sol.TP.RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	t.Logf("fig6 LP: %d vars, %d constraints, %d pivots",
		stats.Vars, stats.Constraints, stats.Pivots)
}

func TestTwoNodeReduce(t *testing.T) {
	// P0 —(cost 1)— P1, target P0, unit sizes and speeds. Each operation
	// needs v[1,1] shipped P1→P0 (1 time unit through P0's in-port) and
	// one task T[0,0,1] at P0 (1 time unit of compute, overlapped).
	// TP = 1.
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, err := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol, _ := solve(t, pr)
	if !rat.Eq(sol.TP, rat.One()) {
		t.Errorf("TP = %s, want 1", sol.TP.RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestTwoNodeReduceSlowCompute(t *testing.T) {
	// Same platform but P0 computes a task in 4 time units and P1 in 1.
	// The optimal schedule lets P1 do the work: P0 ships v[0,0] to P1
	// (out-port 1/op), P1 computes (1/op) and ships v[0,1] back (in-port
	// 1/op at P0) → TP = 1, beating the local-compute bound of 1/4.
	p := graph.New()
	a := p.AddNode("P0", rat.New(1, 4))
	b := p.AddNode("P1", rat.One())
	p.AddLink(a, b, rat.One())
	pr, err := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol, _ := solve(t, pr)
	if !rat.Eq(sol.TP, rat.One()) {
		t.Errorf("TP = %s, want 1 (offload to P1)", sol.TP.RatString())
	}
	// The solution must ship v[0,0] away from the slow target.
	shipped := rat.Zero()
	for k, r := range sol.Sends {
		if k.From == a && k.R == (reduce.Range{0, 0}) {
			shipped.Add(shipped, r)
		}
	}
	if shipped.Sign() == 0 {
		t.Error("expected v[0,0] to be offloaded from the slow node")
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestNonCommutativeOrderRespected(t *testing.T) {
	// All tasks in any solution must merge contiguous, adjacent ranges —
	// guaranteed by construction of the Task type, but Verify must also
	// reject hand-built solutions that fabricate non-adjacent merges.
	sol, _ := solveFig6(t)
	for k := range sol.Tasks {
		if k.T.L < k.T.K || k.T.L >= k.T.M {
			t.Errorf("task %s violates k ≤ l < m", k.T)
		}
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	sol, _ := solveFig6(t)
	// Remove one task: conservation must break.
	for k := range sol.Tasks {
		saved := sol.Tasks[k]
		delete(sol.Tasks, k)
		if err := sol.Verify(); err == nil {
			t.Errorf("Verify accepted solution with %v removed", k)
		}
		sol.Tasks[k] = saved
		break
	}
	// Inflate TP: throughput equation must break.
	savedTP := sol.TP
	sol.TP = rat.Add(sol.TP, rat.One())
	if err := sol.Verify(); err == nil {
		t.Error("Verify accepted inflated TP")
	}
	sol.TP = savedTP
	if err := sol.Verify(); err != nil {
		t.Errorf("restored solution should verify: %v", err)
	}
}

func TestSolutionStringRendering(t *testing.T) {
	sol, _ := solveFig6(t)
	out := sol.String()
	if !strings.Contains(out, "reduce throughput TP = 1") {
		t.Errorf("String output:\n%s", out)
	}
	if !strings.Contains(out, "cons(") || !strings.Contains(out, "send(") {
		t.Errorf("String should list sends and tasks:\n%s", out)
	}
}

func TestReduceChainPlatform(t *testing.T) {
	// Chain of 3 participants, target at one end. The middle node can
	// aggregate: flows v[2,2]→P1, T[1,1,2]@P1, v[1,2]→P0, T[0,0,2]@P0.
	p := topology.Chain(3, rat.One(), rat.One())
	n0 := p.MustLookup("n0")
	n1 := p.MustLookup("n1")
	n2 := p.MustLookup("n2")
	pr, err := reduce.NewProblem(p, []graph.NodeID{n0, n1, n2}, n0)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol, _ := solve(t, pr)
	// P0's in-port carries one v[1,2] per op → TP = 1; both compute and
	// the n1→n0 link allow it.
	if !rat.Eq(sol.TP, rat.One()) {
		t.Errorf("TP = %s, want 1", sol.TP.RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestReduceCustomSizes(t *testing.T) {
	// Double-size partial results halve link throughput.
	p := graph.New()
	a := p.AddNode("P0", rat.Int(10))
	b := p.AddNode("P1", rat.Int(10))
	p.AddLink(a, b, rat.One())
	pr, err := reduce.NewProblem(p, []graph.NodeID{a, b}, a)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	pr.SizeOf = func(reduce.Range) rat.Rat { return rat.Int(2) }
	sol, _ := solve(t, pr)
	if !rat.Eq(sol.TP, rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2 with size-2 messages", sol.TP.RatString())
	}
}
