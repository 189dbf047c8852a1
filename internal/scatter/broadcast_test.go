package scatter_test

import (
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/scatter"
)

// chain3 builds a directed chain a→b→c with unit costs.
func chain3(t *testing.T) (*graph.Platform, graph.NodeID, graph.NodeID, graph.NodeID) {
	t.Helper()
	p := graph.New()
	a := p.AddNode("a", rat.New(1, 1))
	b := p.AddNode("b", rat.New(1, 1))
	c := p.AddNode("c", rat.New(1, 1))
	p.AddEdge(a, b, rat.New(1, 1))
	p.AddEdge(b, c, rat.New(1, 1))
	return p, a, b, c
}

// TestNewBroadcastProblemValidation: role errors are caught at
// construction.
func TestNewBroadcastProblemValidation(t *testing.T) {
	p, a, b, c := chain3(t)
	if _, err := scatter.NewBroadcastProblem(p, a, nil); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := scatter.NewBroadcastProblem(p, a, []graph.NodeID{a}); err == nil {
		t.Error("source as target should fail")
	}
	if _, err := scatter.NewBroadcastProblem(p, a, []graph.NodeID{b, b}); err == nil {
		t.Error("duplicate target should fail")
	}
	if _, err := scatter.NewBroadcastProblem(p, c, []graph.NodeID{a}); err == nil {
		t.Error("unreachable target should fail")
	}
	if _, err := scatter.NewBroadcastProblem(p, a, []graph.NodeID{b, c}); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

// TestBroadcastChainRelay: on a chain a→b→c the same copy is relayed, so
// both targets receive full rate while every edge carries each message
// exactly once — TP = 1 where a scatter of distinct messages would halve.
func TestBroadcastChainRelay(t *testing.T) {
	p, a, b, c := chain3(t)
	pr, err := scatter.NewBroadcastProblem(p, a, []graph.NodeID{b, c})
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p, composite.BroadcastMember(pr, rat.One())).Broadcast
	if got := sol.Throughput().RatString(); got != "1" {
		t.Errorf("TP = %s, want 1", got)
	}
	for _, e := range []core.EdgeKey{{From: a, To: b}, {From: b, To: c}} {
		carry := sol.Carry[e]
		if carry == nil || carry.RatString() != "1" {
			t.Errorf("carry(%d→%d) = %v, want 1 (each message crosses once)", e.From, e.To, carry)
		}
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	trs := sol.CarryTransfers()
	if len(trs) != 2 {
		t.Errorf("got %d carry transfers, want 2", len(trs))
	}
}

// TestBroadcastSingleTargetMatchesScatter: one target leaves nothing to
// replicate; the broadcast and scatter optima coincide.
func TestBroadcastSingleTargetMatchesScatter(t *testing.T) {
	p, a, b, _ := chain3(t)
	bpr := must(scatter.NewBroadcastProblem(p, a, []graph.NodeID{b}))
	spr := must(scatter.NewProblem(p, a, []graph.NodeID{b}))
	bsol := solve(t, p, composite.BroadcastMember(bpr, rat.One())).Broadcast
	ssol := solve(t, p, composite.ScatterMember(spr, rat.One())).Scatter
	if bsol.Throughput().Cmp(ssol.Throughput()) != 0 {
		t.Errorf("broadcast TP = %s, scatter TP = %s",
			bsol.Throughput().RatString(), ssol.Throughput().RatString())
	}
}

// TestBroadcastVerifyCatchesTampering: Verify rejects a solution whose
// carry rates no longer cover the per-target flows.
func TestBroadcastVerifyCatchesTampering(t *testing.T) {
	p, a, b, c := chain3(t)
	pr := must(scatter.NewBroadcastProblem(p, a, []graph.NodeID{b, c}))
	sol := solve(t, p, composite.BroadcastMember(pr, rat.One())).Broadcast
	sol.Carry[core.EdgeKey{From: a, To: b}] = rat.New(1, 4)
	if err := sol.Verify(); err == nil {
		t.Error("Verify accepted a carry rate below the flows it must cover")
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
