package reduce_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

func TestGatherChain(t *testing.T) {
	// n0 ← n1 ← n2 with unit links: n0's in-port must absorb 2 blocks per
	// operation (its own block is local) whether they arrive merged or
	// separate → TP = 1/2.
	p := topology.Chain(3, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2"} {
		order = append(order, p.MustLookup(name))
	}
	pr, err := reduce.NewGatherProblem(p, order, order[0], rat.One())
	if err != nil {
		t.Fatalf("NewGatherProblem: %v", err)
	}
	if pr.Kind() != "gather" {
		t.Errorf("Kind() = %q, want gather", pr.Kind())
	}
	sol, _ := solve(t, pr)
	if !rat.Eq(sol.TP, rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2", sol.TP.RatString())
	}
	if out := sol.String(); !strings.HasPrefix(out, "gather throughput TP = 1/2 ") {
		t.Errorf("String() = %q, want it to name the gather", out)
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestGatherBlockSizeScales(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.One())
	pr, err := reduce.NewGatherProblem(p, []graph.NodeID{a, b}, a, rat.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := solve(t, pr)
	// One 4-unit block crosses b→a per op → TP = 1/4.
	if !rat.Eq(sol.TP, rat.New(1, 4)) {
		t.Errorf("TP = %s, want 1/4", sol.TP.RatString())
	}
}

func TestGatherValidation(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.One())
	// A gather's errors carry its own name, never the reduce it builds on.
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, c, rat.One())
	for _, tc := range []struct {
		name  string
		order []graph.NodeID
		block rat.Rat
		want  string
	}{
		{"zero block size", []graph.NodeID{a, b}, rat.Zero(), "gather: block size must be positive"},
		{"nil block size", []graph.NodeID{a, b}, nil, "gather: block size must be positive"},
		{"single participant", []graph.NodeID{a}, rat.One(),
			"gather: need at least two participants (a single value needs no reduction)"},
		{"unreachable target", []graph.NodeID{a, c}, rat.One(), "gather: participant c cannot reach target a"},
	} {
		if _, err := reduce.NewGatherProblem(p, tc.order, a, tc.block); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestGatherTreesExtract(t *testing.T) {
	p := topology.Chain(3, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2"} {
		order = append(order, p.MustLookup(name))
	}
	pr, err := reduce.NewGatherProblem(p, order, order[0], rat.One())
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := solve(t, pr)
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Errorf("decomposition: %v", err)
	}
}

func TestComputeAtRestriction(t *testing.T) {
	// Fig-6 platform with tasks restricted to the target: the LP can no
	// longer offload merges, so TP can only drop (or stay equal).
	p, order, target := topology.PaperFig6()
	free, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	freeSol, _ := solve(t, free)

	restricted, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	restricted.ComputeAt = []graph.NodeID{target}
	rSol, _ := solve(t, restricted)
	if rSol.TP.Cmp(freeSol.TP) > 0 {
		t.Errorf("restricting compute increased TP: %s > %s",
			rSol.TP.RatString(), freeSol.TP.RatString())
	}
	// All tasks must sit on the target.
	for k := range rSol.Tasks {
		if k.Node != target {
			t.Errorf("task %v escaped the ComputeAt restriction", k)
		}
	}
	if err := rSol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	t.Logf("fig6: free TP=%s, compute-at-target TP=%s", freeSol.TP.RatString(), rSol.TP.RatString())
}

func TestComputeAtVerifyCatchesEscapees(t *testing.T) {
	p, order, target := topology.PaperFig6()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := solve(t, pr)
	// Retroactively restrict: any off-target task must now fail Verify.
	pr.ComputeAt = []graph.NodeID{target}
	offTarget := false
	for k := range sol.Tasks {
		if k.Node != target {
			offTarget = true
		}
	}
	if offTarget {
		if err := sol.Verify(); err == nil {
			t.Error("Verify accepted tasks outside ComputeAt")
		}
	} else {
		t.Log("optimum happened to compute only at target; nothing to check")
	}
}

// TestComputeAtRejectsNodesThatCannotCompute: a ComputeAt entry that is
// not a node of the platform, a router or a zero-speed node fails the
// solve with an error naming it, instead of silently solving to TP = 0.
func TestComputeAtRejectsNodesThatCannotCompute(t *testing.T) {
	fig6, order, target := topology.PaperFig6()

	path := graph.New()
	a := path.AddNode("a", rat.One())
	r := path.AddRouter("r")
	b := path.AddNode("b", rat.One())
	path.AddLink(a, r, rat.One())
	path.AddLink(r, b, rat.One())

	idle := graph.New()
	x := idle.AddNode("x", rat.One())
	z := idle.AddNode("z", rat.Zero())
	y := idle.AddNode("y", rat.One())
	idle.AddLink(x, z, rat.One())
	idle.AddLink(z, y, rat.One())

	for _, c := range []struct {
		name    string
		p       *graph.Platform
		order   []graph.NodeID
		target  graph.NodeID
		compute []graph.NodeID
		want    string
	}{
		{"unknown node", fig6, order, target, []graph.NodeID{99},
			"composite: member 0: reduce: compute node 99 is not on the platform"},
		{"router", path, []graph.NodeID{a, b}, b, []graph.NodeID{r},
			"composite: member 0: reduce: compute node r cannot compute"},
		{"zero speed", idle, []graph.NodeID{x, y}, y, []graph.NodeID{y, z},
			"composite: member 0: reduce: compute node z cannot compute"},
	} {
		pr, err := reduce.NewProblem(c.p, c.order, c.target)
		if err != nil {
			t.Fatalf("%s: NewProblem: %v", c.name, err)
		}
		pr.ComputeAt = c.compute
		cp, err := composite.NewProblem(c.p, []composite.Member{{Weight: rat.One(), Problem: pr}})
		if err != nil {
			t.Fatalf("%s: composite.NewProblem: %v", c.name, err)
		}
		_, err = cp.SolveCtx(context.Background())
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: SolveCtx error %v, want %q", c.name, err, c.want)
		}
	}
}
