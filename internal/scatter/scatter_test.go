package scatter_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// solve solves one scatter or broadcast problem on its own: a one-member
// composite, the single LP path.
func solve(t *testing.T, p *graph.Platform, mem composite.Member) *composite.MemberSolution {
	t.Helper()
	cp, err := composite.NewProblem(p, []composite.Member{mem})
	if err != nil {
		t.Fatalf("composite.NewProblem: %v", err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol.Members[0]
}

func solveFig2(t *testing.T) *scatter.Solution {
	t.Helper()
	p, src, targets := topology.PaperFig2()
	pr, err := scatter.NewProblem(p, src, targets)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	return sol
}

func TestPaperFig2Throughput(t *testing.T) {
	sol := solveFig2(t)
	if !rat.Eq(sol.Throughput(), rat.New(1, 2)) {
		t.Fatalf("TP = %s, want exactly 1/2 (one scatter every two time units)",
			sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestNewProblemValidation(t *testing.T) {
	p, src, targets := topology.PaperFig2()
	if _, err := scatter.NewProblem(p, src, nil); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := scatter.NewProblem(p, src, []graph.NodeID{src}); err == nil {
		t.Error("source as target should fail")
	}
	if _, err := scatter.NewProblem(p, src, []graph.NodeID{targets[0], targets[0]}); err == nil {
		t.Error("duplicate target should fail")
	}
	// P0 cannot reach P1 (edges point downward only).
	if _, err := scatter.NewProblem(p, targets[0], []graph.NodeID{targets[1]}); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestStarScatterThroughput(t *testing.T) {
	// Star: center scatters to n leaves over unit-cost links. The center's
	// out-port serializes everything: TP = 1/n.
	const n = 4
	p := topology.Star(n, rat.One(), rat.One())
	center := p.MustLookup("center")
	var targets []graph.NodeID
	for i := 0; i < n; i++ {
		targets = append(targets, p.MustLookup("leaf"+string(rune('0'+i))))
	}
	pr, err := scatter.NewProblem(p, center, targets)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	if !rat.Eq(sol.Throughput(), rat.New(1, n)) {
		t.Errorf("TP = %s, want 1/%d", sol.Throughput().RatString(), n)
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestChainScatterRelaying(t *testing.T) {
	// Chain n0→n1→n2→n3: n0 scatters to {n1, n2, n3}. n0's out-port must
	// push 3 messages per scatter through one link: TP ≤ 1/3. Relaying
	// achieves it: n1 forwards 2, n2 forwards 1.
	p := topology.Chain(4, rat.One(), rat.One())
	n0 := p.MustLookup("n0")
	targets := []graph.NodeID{p.MustLookup("n1"), p.MustLookup("n2"), p.MustLookup("n3")}
	pr, err := scatter.NewProblem(p, n0, targets)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	if !rat.Eq(sol.Throughput(), rat.New(1, 3)) {
		t.Errorf("TP = %s, want 1/3", sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestHeterogeneousBeatsBottleneck(t *testing.T) {
	// Two targets, one behind a slow link and one behind a fast link: the
	// uniform-throughput constraint makes the slow link the binding
	// resource along with the source port.
	p := graph.New()
	s := p.AddNode("s", rat.One())
	f := p.AddNode("fast", rat.One())
	sl := p.AddNode("slow", rat.One())
	p.AddEdge(s, f, rat.One())
	p.AddEdge(s, sl, rat.Int(5))
	pr, err := scatter.NewProblem(p, s, []graph.NodeID{f, sl})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	// Source out-port: TP·1 + TP·5 ≤ 1 → TP = 1/6.
	if !rat.Eq(sol.Throughput(), rat.New(1, 6)) {
		t.Errorf("TP = %s, want 1/6", sol.Throughput().RatString())
	}
}

func TestSolutionString(t *testing.T) {
	sol := solveFig2(t)
	s := sol.String()
	if !strings.Contains(s, "TP = 1/2") || !strings.Contains(s, "send(") {
		t.Errorf("String output unexpected:\n%s", s)
	}
}

func TestScatterOnTiersPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("medium LP in -short mode")
	}
	p := topology.Tiers(topology.DefaultTiersConfig(23))
	parts := p.Participants()
	pr, err := scatter.NewProblem(p, parts[0], parts[1:])
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	if sol.Throughput().Sign() <= 0 {
		t.Error("TP should be positive")
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}
