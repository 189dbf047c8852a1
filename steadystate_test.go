package steadystate_test

import (
	"math/big"
	"testing"

	steadystate "repro"
)

func TestPublicScatterEndToEnd(t *testing.T) {
	p, src, targets := steadystate.PaperFig2()
	sol := mustSolve(t, p, steadystate.ScatterSpec(src, targets...))
	if sol.Throughput().RatString() != "1/2" {
		t.Errorf("TP = %s, want 1/2", sol.Throughput().RatString())
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("schedule: %v", err)
	}
	m, err := sol.SimModel()
	if err != nil {
		t.Fatalf("SimModel: %v", err)
	}
	res, err := steadystate.Simulate(m, 200)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.MinDelivered().Sign() <= 0 {
		t.Error("simulation delivered nothing")
	}
}

func TestPublicReduceEndToEnd(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	sol := mustSolve(t, p, steadystate.ReduceSpec(order, target)).Unwrap().(*steadystate.ReduceSolution)
	if sol.Throughput().RatString() != "1" {
		t.Errorf("TP = %s, want 1", sol.Throughput().RatString())
	}
	app := sol.Integerize()
	trees, err := app.ExtractTrees()
	if err != nil {
		t.Fatalf("ExtractTrees: %v", err)
	}
	if err := steadystate.VerifyTreeDecomposition(app, trees); err != nil {
		t.Errorf("decomposition: %v", err)
	}
	sched, err := steadystate.ReduceSchedule(app, trees, nil)
	if err != nil {
		t.Fatalf("ReduceSchedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("schedule: %v", err)
	}
	plan, err := steadystate.ApproximateFixedPeriod(app, trees, big.NewInt(50))
	if err != nil {
		t.Fatalf("ApproximateFixedPeriod: %v", err)
	}
	if plan.Loss.Sign() < 0 {
		t.Error("negative loss")
	}
}

func TestPublicGossipAndPrefix(t *testing.T) {
	p := steadystate.Ring(4, steadystate.R(1, 2), steadystate.R(1, 1))
	var nodes []steadystate.NodeID
	for _, n := range p.Nodes() {
		nodes = append(nodes, n.ID)
	}
	gsol := mustSolve(t, p, steadystate.GossipSpec(nodes, nodes))
	if gsol.Throughput().Sign() <= 0 {
		t.Error("gossip TP must be positive")
	}
	if _, err := gsol.Schedule(); err != nil {
		t.Errorf("gossip Schedule: %v", err)
	}
	psol := mustSolve(t, p, steadystate.PrefixSpec(nodes...))
	if psol.Throughput().Sign() <= 0 {
		t.Error("prefix TP must be positive")
	}
}

func TestPublicBaselinesAndTopologies(t *testing.T) {
	p := steadystate.Star(3, steadystate.R(1, 1), steadystate.R(1, 1))
	center := p.MustLookup("center")
	var leaves []steadystate.NodeID
	for _, n := range p.Nodes() {
		if n.ID != center {
			leaves = append(leaves, n.ID)
		}
	}
	base, err := steadystate.SinglePathScatter(p, center, leaves)
	if err != nil {
		t.Fatalf("SinglePathScatter: %v", err)
	}
	sol := mustSolve(t, p, steadystate.ScatterSpec(center, leaves...))
	if sol.Throughput().Cmp(base.Throughput) < 0 {
		t.Error("LP below baseline")
	}

	rp, err := steadystate.NewReduceProblem(p, append([]steadystate.NodeID{center}, leaves...), center)
	if err != nil {
		t.Fatalf("NewReduceProblem: %v", err)
	}
	if _, err := steadystate.FlatReduceTree(rp); err != nil {
		t.Errorf("FlatReduceTree: %v", err)
	}
	if _, err := steadystate.BinaryReduceTree(rp); err != nil {
		t.Errorf("BinaryReduceTree: %v", err)
	}

	tiers := steadystate.Tiers(steadystate.DefaultTiersConfig(5))
	if err := tiers.Validate(); err != nil {
		t.Errorf("tiers: %v", err)
	}
	if r, err := steadystate.ParseRat("2/9"); err != nil || r.RatString() != "2/9" {
		t.Errorf("ParseRat: %v %v", r, err)
	}
}
