package scatter_test

import (
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// solveGossip solves the gossip on its own: a one-member composite, the
// single LP path.
func solveGossip(t *testing.T, pr *scatter.GossipProblem) *scatter.GossipSolution {
	t.Helper()
	return solve(t, pr.Platform, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.GossipSolution)
}

func triangle(t *testing.T) (*graph.Platform, []graph.NodeID) {
	t.Helper()
	p := graph.New()
	var ids []graph.NodeID
	for _, name := range []string{"a", "b", "c"} {
		ids = append(ids, p.AddNode(name, rat.One()))
	}
	p.AddLink(ids[0], ids[1], rat.One())
	p.AddLink(ids[1], ids[2], rat.One())
	p.AddLink(ids[0], ids[2], rat.One())
	return p, ids
}

func TestAllToAllTriangle(t *testing.T) {
	p, ids := triangle(t)
	pr, err := scatter.NewGossipProblem(p, ids, ids)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	if got := len(pr.Commodities()); got != 6 {
		t.Fatalf("commodities = %d, want 6 (self pairs excluded)", got)
	}
	sol := solveGossip(t, pr)
	// Each node emits 2 messages per gossip through a 1-capacity port:
	// TP = 1/2.
	if !rat.Eq(sol.Throughput(), rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2", sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if sol.Period().Sign() <= 0 {
		t.Error("period must be positive")
	}
}

func TestGossipSubsetSourcesTargets(t *testing.T) {
	// Sources {a}, targets {b, c}: degenerates to a scatter.
	p, ids := triangle(t)
	pr, err := scatter.NewGossipProblem(p, ids[:1], ids[1:])
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solveGossip(t, pr)
	// a sends 2 unit messages per operation out of one port → 1/2.
	if !rat.Eq(sol.Throughput(), rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2", sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestGossipOverlapExcludesSelf(t *testing.T) {
	// Sources and targets overlap on one node: the (x, x) commodity is
	// excluded, others remain.
	p, ids := triangle(t)
	pr, err := scatter.NewGossipProblem(p, []graph.NodeID{ids[0], ids[1]}, []graph.NodeID{ids[1], ids[2]})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	// pairs: a→b, a→c, b→c (b→b excluded).
	if got := len(pr.Commodities()); got != 3 {
		t.Fatalf("commodities = %d, want 3", got)
	}
	sol := solveGossip(t, pr)
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestGossipValidation(t *testing.T) {
	p, ids := triangle(t)
	if _, err := scatter.NewGossipProblem(p, nil, ids); err == nil {
		t.Error("no sources should fail")
	}
	if _, err := scatter.NewGossipProblem(p, ids, nil); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := scatter.NewGossipProblem(p, []graph.NodeID{ids[0], ids[0]}, ids); err == nil {
		t.Error("duplicate source should fail")
	}
	if _, err := scatter.NewGossipProblem(p, ids[:1], ids[:1]); err == nil {
		t.Error("single self pair should fail")
	}

	// Unreachable pair.
	q := graph.New()
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	q.AddEdge(a, b, rat.One())
	if _, err := scatter.NewGossipProblem(q, []graph.NodeID{b}, []graph.NodeID{a}); err == nil {
		t.Error("unreachable pair should fail")
	}
}

func TestGossipString(t *testing.T) {
	p, ids := triangle(t)
	pr, _ := scatter.NewGossipProblem(p, ids[:1], ids[1:])
	sol := solveGossip(t, pr)
	out := sol.String()
	if !strings.Contains(out, "gossip throughput") || !strings.Contains(out, "send(") {
		t.Errorf("String output unexpected:\n%s", out)
	}
}

func TestGossipStarRelay(t *testing.T) {
	// Star with center as pure relay: 3 leaves gossip all-to-all. Every
	// message crosses center; center's ports carry 6 messages per op →
	// TP = 1/6.
	p := graph.New()
	c := p.AddRouter("hub")
	var leaves []graph.NodeID
	for _, name := range []string{"l0", "l1", "l2"} {
		id := p.AddNode(name, rat.One())
		p.AddLink(c, id, rat.One())
		leaves = append(leaves, id)
	}
	pr, err := scatter.NewGossipProblem(p, leaves, leaves)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solveGossip(t, pr)
	if !rat.Eq(sol.Throughput(), rat.New(1, 6)) {
		t.Errorf("TP = %s, want 1/6", sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestGossipOnTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("medium LP in -short mode")
	}
	p := topology.Tiers(topology.DefaultTiersConfig(31))
	parts := p.Participants()
	// Keep the commodity count modest: 3 sources × 3 targets.
	pr, err := scatter.NewGossipProblem(p, parts[:3], parts[len(parts)-3:])
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solveGossip(t, pr)
	if sol.Throughput().Sign() <= 0 {
		t.Error("TP should be positive")
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestAllgatherIsGossip: the allgather phase of an allreduce (every
// participant redistributes its segment to every other rank) is the
// gossip with sources == targets == order: its commodities are every
// ordered pair of distinct ranks, source-major, and on the triangle it
// runs at the all-to-all rate 1/2.
func TestAllgatherIsGossip(t *testing.T) {
	p, ids := triangle(t)
	ag, err := scatter.NewGossipProblem(p, ids, ids)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	var want []core.Commodity
	for _, s := range ids {
		for _, d := range ids {
			if s != d {
				want = append(want, core.Commodity{Src: s, Dst: d})
			}
		}
	}
	if got := ag.Commodities(); len(got) != len(want) {
		t.Fatalf("allgather has %d commodities, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("commodity %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	agSol := solveGossip(t, ag)
	if !rat.Eq(agSol.Throughput(), rat.New(1, 2)) {
		t.Errorf("allgather TP = %s, want 1/2", agSol.Throughput().RatString())
	}
	if err := agSol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}
