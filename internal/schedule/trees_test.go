package schedule_test

import (
	"math/big"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/schedule"
	"repro/internal/topology"
)

func fig6Trees(t *testing.T) (*reduce.Solution, *reduce.Application, []*reduce.Tree) {
	t.Helper()
	p, order, target := topology.PaperFig6()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.ReduceMember(pr, rat.One())).Reduce
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	return sol, app, trees
}

// TestPaperFig6PipelinedSchedule builds the pipelined reduce schedule of
// the paper's Figure 6(e): communications serialized into matchings,
// computation overlapped, everything within the period.
func TestPaperFig6PipelinedSchedule(t *testing.T) {
	sol, app, trees := fig6Trees(t)
	sched, err := schedule.FromTrees(app, trees, nil)
	if err != nil {
		t.Fatalf("FromTrees: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Compute load: with TP=1, P0 runs one T[0,_,2] per op (time 1/2);
	// the other nodes' loads depend on the chosen optimum but must fit.
	for id, load := range sched.ComputeLoad {
		if load.Cmp(sched.Period) > 0 {
			t.Errorf("node %s compute load %s exceeds period %s",
				sol.Problem.Platform.Node(id).Name, load.RatString(), sched.Period.RatString())
		}
	}
	t.Log("\n" + sched.Gantt())
}

func TestFromTreesFixedPeriod(t *testing.T) {
	_, app, trees := fig6Trees(t)
	fixed := big.NewInt(60)
	plan, err := reduce.ApproximateFixedPeriod(app, trees, fixed)
	if err != nil {
		t.Fatalf("ApproximateFixedPeriod: %v", err)
	}
	sched, err := schedule.FromTrees(app, plan.Trees, fixed)
	if err != nil {
		t.Fatalf("FromTrees: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rat.Eq(sched.Period, rat.Int(60)) {
		t.Errorf("period = %s, want 60", sched.Period.RatString())
	}
}

func TestFromTreesChainReduce(t *testing.T) {
	p := topology.Chain(4, rat.New(1, 2), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		order = append(order, p.MustLookup(name))
	}
	pr, err := reduce.NewProblem(p, order, order[0])
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.ReduceMember(pr, rat.One())).Reduce
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	sched, err := schedule.FromTrees(app, trees, nil)
	if err != nil {
		t.Fatalf("FromTrees: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Every tree communication appears in the schedule.
	total := rat.Zero()
	for _, v := range sched.TotalMessages() {
		total.Add(total, v)
	}
	wantAtLeast := rat.Zero()
	for _, tree := range trees {
		w := new(big.Rat).SetInt(tree.Weight)
		wantAtLeast.Add(wantAtLeast, rat.Mul(w, rat.Int(int64(len(tree.Communications())))))
	}
	if !rat.Eq(total, wantAtLeast) {
		t.Errorf("scheduled %s messages, want %s", total.RatString(), wantAtLeast.RatString())
	}
}
