// Analytic-bound property tests: the LP optimum must always sit between
// the best baseline (lower bound, by optimality) and simple closed-form
// port-capacity bounds (upper bounds, from the one-port model). These
// catch both "LP too low" (missed routes) and "LP too high" (broken
// constraints) regressions on randomized inputs.
package steadystate_test

import (
	"math/big"
	"testing"

	steadystate "repro"
	"repro/internal/topology"
)

// scatterUpperBounds returns the two closed-form bounds for a scatter:
//
//   - source port: each operation pushes one message per target out of the
//     source, so TP · Σ_t min-out-cost ≤ TP · N · c_min_out ≤ 1;
//   - target port: messages for t arrive through t's in-edges, and
//     TP · c_min_in(t) ≤ 1 for every target t.
func scatterUpperBounds(p *steadystate.Platform, source steadystate.NodeID, targets []steadystate.NodeID) []*big.Rat {
	var bounds []*big.Rat
	// Source out-port: N messages per op, each taking at least the
	// cheapest outgoing edge cost.
	minOut := (*big.Rat)(nil)
	for _, e := range p.OutEdges(source) {
		if minOut == nil || e.Cost.Cmp(minOut) < 0 {
			minOut = e.Cost
		}
	}
	if minOut != nil {
		nTargets := big.NewRat(int64(len(targets)), 1)
		bound := new(big.Rat).Inv(new(big.Rat).Mul(nTargets, minOut))
		bounds = append(bounds, bound)
	}
	for _, t := range targets {
		minIn := (*big.Rat)(nil)
		for _, e := range p.InEdges(t) {
			if minIn == nil || e.Cost.Cmp(minIn) < 0 {
				minIn = e.Cost
			}
		}
		if minIn != nil {
			bounds = append(bounds, new(big.Rat).Inv(minIn))
		}
	}
	return bounds
}

func TestScatterRespectsPortBounds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := topology.RandomConnected(7, 0.5, topology.DefaultRandomConfig(seed))
		parts := p.Participants()
		src := parts[0]
		targets := parts[1:5]
		sol := mustSolve(t, p, steadystate.ScatterSpec(src, targets...))
		for i, bound := range scatterUpperBounds(p, src, targets) {
			if sol.Throughput().Cmp(bound) > 0 {
				t.Errorf("seed %d: TP %s exceeds port bound %d (%s)",
					seed, sol.Throughput().RatString(), i, bound.RatString())
			}
		}
	}
}

func TestReduceRespectsTargetBounds(t *testing.T) {
	// Each reduce delivers one final result to the target: either computed
	// there (at least one task of time ≥ min task time) or received (one
	// message of cost ≥ min in-edge cost). TP ≤ 1/min(minTask, minIn).
	for seed := int64(1); seed <= 4; seed++ {
		p := topology.RandomConnected(6, 0.5, topology.DefaultRandomConfig(seed))
		parts := p.Participants()
		order := parts[:3]
		target := order[0]
		pr, err := steadystate.NewReduceProblem(p, order, target)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sol, _ := solveReduceProblem(t, pr)
		minIn := (*big.Rat)(nil)
		for _, e := range p.InEdges(target) {
			if minIn == nil || e.Cost.Cmp(minIn) < 0 {
				minIn = e.Cost
			}
		}
		minTask := pr.TaskTime(target, steadystate.ReduceTask{K: 0, L: 0, M: 1})
		perOp := minTask
		if minIn != nil && minIn.Cmp(perOp) < 0 {
			perOp = minIn
		}
		bound := new(big.Rat).Inv(perOp)
		if sol.Throughput().Cmp(bound) > 0 {
			t.Errorf("seed %d: TP %s exceeds target bound %s",
				seed, sol.Throughput().RatString(), bound.RatString())
		}
	}
}

func TestGossipBoundedByScatterOfBusiestSource(t *testing.T) {
	// A gossip from S to T delivers |T|-ish streams per source, so its
	// uniform TP can never beat the scatter TP of any single source to the
	// same targets (the scatter is the gossip with all other sources'
	// traffic removed).
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(13))
	parts := p.Participants()
	sources := parts[:3]
	targets := parts[len(parts)-3:]
	gsol := mustSolve(t, p, steadystate.GossipSpec(sources, targets))
	for _, s := range sources {
		var ts []steadystate.NodeID
		for _, tt := range targets {
			if tt != s {
				ts = append(ts, tt)
			}
		}
		ssol := mustSolve(t, p, steadystate.ScatterSpec(s, ts...))
		if gsol.Throughput().Cmp(ssol.Throughput()) > 0 {
			t.Errorf("gossip TP %s beats single-source scatter TP %s from %s",
				gsol.Throughput().RatString(), ssol.Throughput().RatString(), p.Node(s).Name)
		}
	}
}

func TestPublicLatencySimulation(t *testing.T) {
	p, src, targets := steadystate.PaperFig2()
	m, err := mustSolve(t, p, steadystate.ScatterSpec(src, targets...)).SimModel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := steadystate.SimulateLatency(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency() < 0 {
		t.Error("negative mean latency")
	}
	if res.MaxLatency < 1 {
		t.Error("relayed scatter should have ≥ 1 period of latency")
	}
	// Delivered totals must match the plain simulator.
	plain, err := steadystate.Simulate(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == nil || plain.MinDelivered().Sign() <= 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPublicTopologyWrappers(t *testing.T) {
	if got := steadystate.Chain(3, steadystate.R(1, 1), steadystate.R(1, 1)).NumNodes(); got != 3 {
		t.Errorf("Chain nodes = %d", got)
	}
	if got := steadystate.Ring(4, steadystate.R(1, 1), steadystate.R(1, 1)).NumNodes(); got != 4 {
		t.Errorf("Ring nodes = %d", got)
	}
	if got := steadystate.Grid2D(2, 3, steadystate.R(1, 1), steadystate.R(1, 1)).NumNodes(); got != 6 {
		t.Errorf("Grid2D nodes = %d", got)
	}
	if steadystate.PaperFig9MessageSize().RatString() != "10" {
		t.Error("PaperFig9MessageSize should be 10")
	}
	if _, err := steadystate.ParseRat("zzz"); err == nil {
		t.Error("ParseRat should fail on garbage")
	}
}

func TestPublicGatherProblem(t *testing.T) {
	p := steadystate.Chain(3, steadystate.R(1, 1), steadystate.R(1, 1))
	var order []steadystate.NodeID
	for _, n := range p.Nodes() {
		order = append(order, n.ID)
	}
	pr, err := steadystate.NewGatherProblem(p, order, order[0], steadystate.R(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := solveReduceProblem(t, pr)
	if sol.Throughput().RatString() != "1/2" {
		t.Errorf("gather TP = %s, want 1/2", sol.Throughput().RatString())
	}
}
