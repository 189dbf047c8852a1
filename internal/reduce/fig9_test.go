package reduce_test

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/topology"
)

// Fig9Problem builds the paper's Figure 9 experiment: the reconstructed
// Tiers platform, uniform message size 10, task time 10/speed.
func Fig9Problem(t testing.TB) *reduce.Problem {
	t.Helper()
	p, order, target := topology.PaperFig9()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	size := topology.PaperFig9MessageSize()
	pr.SizeOf = func(reduce.Range) rat.Rat { return size }
	return pr
}

// TestPaperFig9Reduce runs the paper's main experiment end to end: solve
// SSR on the 14-node Tiers platform and extract the reduction trees. The
// paper reports TP = 2/9 and two trees of weight 1/9 each; our link
// bandwidths are re-sampled in-range (see topology.PaperFig9), so we assert the
// shape: a positive small-rational TP, a valid polynomial tree family
// covering it exactly, and a verified solution.
func TestPaperFig9Reduce(t *testing.T) {
	if testing.Short() {
		t.Skip("large LP in -short mode")
	}
	pr := Fig9Problem(t)
	start := time.Now()
	sol, stats := solve(t, pr)
	solveTime := time.Since(start)
	t.Logf("fig9: TP=%s (~%.4f) vars=%d constraints=%d pivots=%d in %v",
		sol.TP.RatString(), rat.Float(sol.TP),
		stats.Vars, stats.Constraints, stats.Pivots, solveTime)

	if sol.TP.Sign() <= 0 {
		t.Fatal("TP must be positive")
	}
	if err := sol.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if err := reduce.VerifyDecomposition(app, trees); err != nil {
		t.Fatalf("VerifyDecomposition: %v", err)
	}
	for i, tree := range trees {
		if err := tree.Validate(pr); err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
	n := pr.N() + 1
	bound := 2 * n * n * n * n
	if len(trees) > bound {
		t.Errorf("%d trees exceeds 2n⁴ = %d", len(trees), bound)
	}
	t.Logf("fig9: %d reduction trees (paper: 2), period %s", len(trees), app.Period)

	// Fixed-period approximation sweep (Proposition 4).
	for _, fixed := range []int64{10, 100, 1000} {
		plan, err := reduce.ApproximateFixedPeriod(app, trees, big.NewInt(fixed))
		if err != nil {
			t.Fatalf("ApproximateFixedPeriod(%d): %v", fixed, err)
		}
		t.Logf("fig9: T_fixed=%d → throughput %s (loss %s)",
			fixed, plan.Throughput.RatString(), plan.Loss.RatString())
	}
}
