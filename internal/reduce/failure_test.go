package reduce_test

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

// TestExtractTreesStuckOnCorruptedApplication: deleting a transfer from a
// consistent application must make FIND_TREE fail with a diagnostic, not
// loop or return a bogus family.
func TestExtractTreesStuckOnCorruptedApplication(t *testing.T) {
	sol, _ := solveFig6(t)
	app := sol.Integerize()
	if len(app.Sends) == 0 {
		t.Skip("optimum has no transfers to corrupt")
	}
	for k := range app.Sends {
		delete(app.Sends, k)
		break
	}
	_, err := app.ExtractTrees()
	if err == nil {
		t.Fatal("corrupted application extracted successfully")
	}
	if !strings.Contains(err.Error(), "FIND_TREE") && !strings.Contains(err.Error(), "reduce:") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestExtractTreesInflatedOps: an application claiming more operations
// than its actions can cover must fail cleanly.
func TestExtractTreesInflatedOps(t *testing.T) {
	sol, _ := solveFig6(t)
	app := sol.Integerize()
	app.Ops = new(big.Int).Add(app.Ops, big.NewInt(5))
	if _, err := app.ExtractTrees(); err == nil {
		t.Fatal("inflated Ops extracted successfully")
	}
}

// TestExtractTreesCycleGuard: a hand-built application whose only
// "support" for the root is a two-node transfer cycle must trip the depth
// guard rather than recurse forever.
func TestExtractTreesCycleGuard(t *testing.T) {
	p := graph.New()
	a := p.AddNode("P0", rat.One())
	b := p.AddNode("P1", rat.One())
	c := p.AddNode("P2", rat.One())
	p.AddLink(a, b, rat.One())
	p.AddLink(b, c, rat.One())
	p.AddLink(a, c, rat.One())
	pr, err := reduce.NewProblem(p, []graph.NodeID{a, b, c}, a)
	if err != nil {
		t.Fatal(err)
	}
	final := reduce.Range{0, 2}
	app := &reduce.Application{
		Problem: pr,
		Period:  big.NewInt(1),
		Ops:     big.NewInt(1),
		Sends: map[reduce.SendKey]*big.Int{
			// v[0,2] circulating b↔c, one copy entering the target from b,
			// but nothing ever produces it: the expansion must hit the
			// depth guard or a stuck state, never hang.
			{From: b, To: a, R: final}: big.NewInt(1),
			{From: c, To: b, R: final}: big.NewInt(1),
			{From: b, To: c, R: final}: big.NewInt(1),
		},
		Tasks: map[reduce.TaskKey]*big.Int{},
	}
	done := make(chan error, 1)
	go func() {
		_, err := app.ExtractTrees()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cyclic application extracted successfully")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExtractTrees hung on a cyclic application")
	}
}

// TestReduceStressFiveParticipants: a mid-size instance (N=4 over a
// 10-node Tiers platform) through the full pipeline, as a performance and
// robustness canary between the toy examples and Fig 9.
func TestReduceStressFiveParticipants(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	cfg := topology.DefaultTiersConfig(77)
	cfg.LANs = 3
	cfg.LANNodes = 2
	p := topology.Tiers(cfg)
	parts := p.Participants()
	order := parts[:5]
	pr, err := reduce.NewProblem(p, order, order[0])
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sol, stats := solve(t, pr)
	if err := sol.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Fatalf("decomposition: %v", err)
	}
	for i, tree := range trees {
		if err := tree.Validate(pr); err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
	t.Logf("N=5 tiers: TP=%s, %d trees, %d pivots, %v",
		sol.TP.RatString(), len(trees), stats.Pivots, time.Since(start).Round(time.Millisecond))
}
