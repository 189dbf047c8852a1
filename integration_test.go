// Integration tests: end-to-end sweeps over seeded random platforms,
// cross-checking every layer against every other — LP against independent
// constraint verification, LP against baselines (optimality), schedules
// against slot invariants, tree families against Theorem 1, and the
// dynamic protocol against the Lemma-1 bound.
package steadystate_test

import (
	"math/big"
	"testing"

	steadystate "repro"
	"repro/internal/topology"
)

// randomPlatforms yields a handful of seeded heterogeneous platforms.
func randomPlatforms(t testing.TB) []*steadystate.Platform {
	t.Helper()
	var out []*steadystate.Platform
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, topology.RandomConnected(8, 0.6, topology.DefaultRandomConfig(seed)))
	}
	out = append(out, steadystate.Tiers(steadystate.DefaultTiersConfig(99)))
	return out
}

func TestIntegrationScatterSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for i, p := range randomPlatforms(t) {
		parts := p.Participants()
		src := parts[0]
		targets := parts[1:]

		sol := mustSolve(t, p, steadystate.ScatterSpec(src, targets...))
		if err := sol.Verify(); err != nil {
			t.Errorf("platform %d: verify: %v", i, err)
		}
		if sol.Throughput().Sign() <= 0 {
			t.Errorf("platform %d: non-positive TP", i)
			continue
		}

		// Optimality: never below the single-path baseline.
		base, err := steadystate.SinglePathScatter(p, src, targets)
		if err != nil {
			t.Fatalf("platform %d: baseline: %v", i, err)
		}
		if sol.Throughput().Cmp(base.Throughput) < 0 {
			t.Errorf("platform %d: LP %s below baseline %s",
				i, sol.Throughput().RatString(), base.Throughput.RatString())
		}

		// Schedule construction and invariants.
		sched, err := sol.Schedule()
		if err != nil {
			t.Fatalf("platform %d: schedule: %v", i, err)
		}
		if err := sched.Verify(); err != nil {
			t.Errorf("platform %d: schedule verify: %v", i, err)
		}

		// Dynamic protocol: ratio within (0, 1].
		m, err := sol.SimModel()
		if err != nil {
			t.Fatalf("platform %d: model: %v", i, err)
		}
		res, err := steadystate.Simulate(m, 300)
		if err != nil {
			t.Fatalf("platform %d: simulate: %v", i, err)
		}
		k := new(big.Int).Mul(big.NewInt(300), m.Period)
		bound := new(big.Rat).Mul(sol.Throughput(), new(big.Rat).SetInt(k))
		delivered := new(big.Rat).SetInt(res.MinDelivered())
		if delivered.Cmp(bound) > 0 {
			t.Errorf("platform %d: simulation beats Lemma-1 bound", i)
		}
		ratio := new(big.Rat).Quo(delivered, bound)
		if ratio.Cmp(big.NewRat(9, 10)) < 0 {
			t.Errorf("platform %d: ratio %s < 0.9 after 300 periods", i, ratio.RatString())
		}
	}
}

func TestIntegrationReduceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for i, p := range randomPlatforms(t) {
		parts := p.Participants()
		// Keep the LP small: 4 participants.
		order := parts[:4]
		target := order[0]

		pr, err := steadystate.NewReduceProblem(p, order, target)
		if err != nil {
			t.Fatalf("platform %d: problem: %v", i, err)
		}
		sol, _ := solveReduceProblem(t, pr)
		if err := sol.Verify(); err != nil {
			t.Errorf("platform %d: verify: %v", i, err)
		}

		// Optimality versus both fixed-tree baselines.
		for name, build := range map[string]func(*steadystate.ReduceProblem) (*steadystate.BaselineReduce, error){
			"flat":   steadystate.FlatReduceTree,
			"binary": steadystate.BinaryReduceTree,
		} {
			base, err := build(pr)
			if err != nil {
				t.Fatalf("platform %d: %s baseline: %v", i, name, err)
			}
			if sol.Throughput().Cmp(base.Throughput) < 0 {
				t.Errorf("platform %d: LP %s below %s baseline %s",
					i, sol.Throughput().RatString(), name, base.Throughput.RatString())
			}
		}

		// Theorem 1 end to end.
		app := sol.Integerize()
		trees, err := app.ExtractTrees()
		if err != nil {
			t.Fatalf("platform %d: trees: %v", i, err)
		}
		if err := steadystate.VerifyTreeDecomposition(app, trees); err != nil {
			t.Errorf("platform %d: decomposition: %v", i, err)
		}
		for j, tree := range trees {
			if err := tree.Validate(pr); err != nil {
				t.Errorf("platform %d tree %d: %v", i, j, err)
			}
		}
		n := len(order)
		if len(trees) > 2*n*n*n*n {
			t.Errorf("platform %d: %d trees exceeds 2n⁴", i, len(trees))
		}

		// Schedule from the family.
		sched, err := steadystate.ReduceSchedule(app, trees, nil)
		if err != nil {
			t.Fatalf("platform %d: schedule: %v", i, err)
		}
		if err := sched.Verify(); err != nil {
			t.Errorf("platform %d: schedule verify: %v", i, err)
		}

		// Fixed-period plans stay within the Proposition-4 bound.
		for _, fixed := range []int64{7, 50} {
			plan, err := steadystate.ApproximateFixedPeriod(app, trees, big.NewInt(fixed))
			if err != nil {
				t.Fatalf("platform %d: fixed %d: %v", i, fixed, err)
			}
			bound := big.NewRat(int64(len(trees)), fixed)
			if plan.Loss.Cmp(bound) > 0 {
				t.Errorf("platform %d: loss exceeds bound at T=%d", i, fixed)
			}
		}
	}
}

func TestIntegrationGossipSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for i, p := range randomPlatforms(t) {
		parts := p.Participants()
		sources := parts[:2]
		targets := parts[len(parts)-2:]
		sol := mustSolve(t, p, steadystate.GossipSpec(sources, targets))
		if err := sol.Verify(); err != nil {
			t.Errorf("platform %d: verify: %v", i, err)
		}
		sched, err := sol.Schedule()
		if err != nil {
			t.Fatalf("platform %d: schedule: %v", i, err)
		}
		if err := sched.Verify(); err != nil {
			t.Errorf("platform %d: schedule verify: %v", i, err)
		}
	}
}

// TestIntegrationScatterSubsetMonotonicity: adding targets can only slow
// the uniform throughput down (more work per operation).
func TestIntegrationScatterSubsetMonotonicity(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(41))
	parts := p.Participants()
	src := parts[0]
	prev := steadystate.Rat(nil)
	for k := 2; k <= len(parts); k++ {
		sol := mustSolve(t, p, steadystate.ScatterSpec(src, parts[1:k]...))
		if prev != nil && sol.Throughput().Cmp(prev) > 0 {
			t.Errorf("k=%d: TP %s increased from %s with more targets",
				k, sol.Throughput().RatString(), prev.RatString())
		}
		prev = sol.Throughput()
	}
}

// TestIntegrationReduceParticipantMonotonicity: adding participants to a
// reduce can only slow it down on a fixed platform.
func TestIntegrationReduceParticipantMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	p := steadystate.Chain(5, steadystate.R(1, 2), steadystate.R(2, 1))
	var all []steadystate.NodeID
	for _, n := range p.Nodes() {
		all = append(all, n.ID)
	}
	prev := steadystate.Rat(nil)
	for k := 2; k <= len(all); k++ {
		sol := mustSolve(t, p, steadystate.ReduceSpec(all[:k], all[0]))
		if prev != nil && sol.Throughput().Cmp(prev) > 0 {
			t.Errorf("k=%d: TP %s increased from %s with more participants",
				k, sol.Throughput().RatString(), prev.RatString())
		}
		prev = sol.Throughput()
	}
}
