package scatter_test

import (
	"context"
	"math/big"
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

func TestBufferRequirements(t *testing.T) {
	sol := solveFig2(t)
	reqs := sol.BufferRequirements()
	if len(reqs) == 0 {
		t.Fatal("no buffer requirements for a relaying platform")
	}
	p := sol.Problem.Platform
	src := sol.Problem.Source
	for _, r := range reqs {
		if r.Node == src {
			t.Error("source must not appear in buffer requirements")
		}
		if r.MinMessages.Sign() <= 0 {
			t.Errorf("node %s type m_%s: non-positive buffer %s",
				p.Node(r.Node).Name, p.Node(r.Target).Name, r.MinMessages)
		}
	}
	// Forwarders (Pa and/or Pb) must buffer exactly the per-period counts:
	// total forwarded messages per period = TP·period per target stream
	// crossing them. Check aggregate: sum over forwarders of m_t buffers
	// equals per-period forwarded count of each type.
	period := new(big.Rat).SetInt(sol.Period())
	for _, tgt := range sol.Problem.Targets {
		want := rat.Mul(sol.Throughput(), period) // messages of m_tgt delivered per period
		got := rat.Zero()
		for _, r := range reqs {
			if r.Target == tgt {
				got.Add(got, new(big.Rat).SetInt(r.MinMessages))
			}
		}
		// Every delivered message of m_tgt crosses exactly one forwarder
		// on this platform (source → forwarder → target), so the buffered
		// count equals the delivered count.
		if !rat.Eq(got, want) {
			t.Errorf("m_%s buffered %s per period, want %s",
				p.Node(tgt).Name, got.RatString(), want.RatString())
		}
	}
}

func TestProtocolAsymptotics(t *testing.T) {
	sol := solveFig2(t)
	prev := rat.Zero()
	for _, k := range []int64{100, 1000, 10000} {
		pr := sol.Protocol(big.NewInt(k))
		ratio := pr.Ratio(sol.Throughput())
		if ratio.Cmp(prev) < 0 {
			t.Errorf("ratio not monotone at K=%d", k)
		}
		if ratio.Cmp(rat.One()) > 0 {
			t.Errorf("ratio > 1 at K=%d: %s (violates Lemma 1)", k, ratio.RatString())
		}
		prev = ratio
	}
	if rat.Less(prev, rat.New(9, 10)) {
		t.Errorf("ratio at K=10000 is %s, expected ≥ 0.9", prev.RatString())
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
