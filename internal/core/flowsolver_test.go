package core_test

import (
	"context"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rat"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// solve solves one scatter or gossip member on its own — a one-member
// composite, the single LP path — and returns its flow and the LP
// counters.
func solve(t *testing.T, p *graph.Platform, mem composite.Member) (*core.Flow[core.Commodity], core.FlowStats) {
	t.Helper()
	cp, err := composite.NewProblem(p, []composite.Member{mem})
	if err != nil {
		t.Fatalf("composite.NewProblem: %v", err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ms := sol.Members[0]
	if ms.Gossip != nil {
		return ms.Gossip.Flow, sol.Stats
	}
	return ms.Scatter.Flow, sol.Stats
}

// scatterMember returns the scatter from src to targets — the commodities
// (src, t), in target order — as a weight-1 member.
func scatterMember(t *testing.T, p *graph.Platform, src graph.NodeID, targets ...graph.NodeID) composite.Member {
	t.Helper()
	pr, err := scatter.NewProblem(p, src, targets)
	if err != nil {
		t.Fatalf("scatter.NewProblem: %v", err)
	}
	return composite.ScatterMember(pr, rat.One())
}

func TestSolveUniformFlowSingleEdge(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddEdge(a, b, rat.New(1, 4)) // 4 messages per time unit

	f, stats := solve(t, p, scatterMember(t, p, a, b))
	if !rat.Eq(f.Throughput, rat.Int(4)) {
		t.Errorf("TP = %s, want 4", f.Throughput.RatString())
	}
	if stats.Vars == 0 || stats.Constraints == 0 {
		t.Errorf("stats look empty: %+v", stats)
	}
	if err := f.VerifyOnePort(func(core.Commodity) rat.Rat { return rat.One() }); err != nil {
		t.Errorf("one-port: %v", err)
	}
}

// TestSolveUniformFlowPaperFig2 is the paper's toy scatter: TP must be
// exactly 1/2, and the m0 stream must use both routes.
func TestSolveUniformFlowPaperFig2(t *testing.T) {
	p, src, targets := topology.PaperFig2()
	comms := []core.Commodity{{src, targets[0]}, {src, targets[1]}}
	f, _ := solve(t, p, scatterMember(t, p, src, targets[0], targets[1]))
	if !rat.Eq(f.Throughput, rat.New(1, 2)) {
		t.Fatalf("TP = %s, want exactly 1/2", f.Throughput.RatString())
	}
	// m0 arrives at P0 at rate 1/2 in total, possibly split across the Pa
	// and Pb routes (the paper's solution splits 3+3 per period 12, but
	// the optimum is not unique: all-via-Pa also achieves 1/2).
	pa := p.MustLookup("Pa")
	pb := p.MustLookup("Pb")
	p0 := targets[0]
	m0 := comms[0]
	viaA := f.Send(pa, p0, m0)
	viaB := f.Send(pb, p0, m0)
	if !rat.Eq(rat.Add(viaA, viaB), rat.New(1, 2)) {
		t.Errorf("m0 delivery = %s, want 1/2", rat.Add(viaA, viaB).RatString())
	}
	// m1 can only go over Pb, at rate 1/2 (6 per period 12).
	if got := f.Send(pb, targets[1], comms[1]); !rat.Eq(got, rat.New(1, 2)) {
		t.Errorf("m1 on Pb→P1 = %s, want 1/2", got.RatString())
	}
	// Period: the paper's figure uses period 12. Any positive period whose
	// multiple reaches 12 works; log the one we get.
	period := f.Period()
	if period.Sign() <= 0 {
		t.Error("period must be positive")
	}
	t.Logf("period = %s (paper uses 12)", period)
}

// TestSolveUniformFlowMultipathRequired uses a platform where no single
// route reaches the optimum: route A is cheap to enter but expensive to
// finish, route B the reverse, so only a 50/50 split achieves TP = 1/2
// (either single route alone caps at 1/3). This is the capability the
// paper highlights in Figure 2 ("all the messages destined to processor P0
// do not take the same route").
func TestSolveUniformFlowMultipathRequired(t *testing.T) {
	p := graph.New()
	s := p.AddNode("s", rat.One())
	a := p.AddRouter("a")
	b := p.AddRouter("b")
	d := p.AddNode("d", rat.One())
	p.AddEdge(s, a, rat.Int(3))
	p.AddEdge(s, b, rat.One())
	p.AddEdge(a, d, rat.One())
	p.AddEdge(b, d, rat.Int(3))

	f, _ := solve(t, p, scatterMember(t, p, s, d))
	if !rat.Eq(f.Throughput, rat.New(1, 2)) {
		t.Fatalf("TP = %s, want 1/2", f.Throughput.RatString())
	}
	com := core.Commodity{s, d}
	viaA := f.Send(a, d, com)
	viaB := f.Send(b, d, com)
	if rat.IsZero(viaA) || rat.IsZero(viaB) {
		t.Errorf("optimum requires both routes: viaA=%s viaB=%s",
			viaA.RatString(), viaB.RatString())
	}
}

func TestSolveUniformFlowConservation(t *testing.T) {
	// Chain s → r → d: everything the router receives must be forwarded.
	p := graph.New()
	s := p.AddNode("s", rat.One())
	r := p.AddRouter("r")
	d := p.AddNode("d", rat.One())
	p.AddEdge(s, r, rat.One())
	p.AddEdge(r, d, rat.New(1, 2))

	f, _ := solve(t, p, scatterMember(t, p, s, d))
	// Bottleneck is the s→r edge: 1 message per time unit.
	if !rat.Eq(f.Throughput, rat.One()) {
		t.Errorf("TP = %s, want 1", f.Throughput.RatString())
	}
	in, out := f.InflowOutflow(r, core.Commodity{s, d})
	if !rat.Eq(in, out) {
		t.Errorf("conservation violated at router: in=%s out=%s", in.RatString(), out.RatString())
	}
}

func TestSolveUniformFlowGossip(t *testing.T) {
	// Symmetric triangle, all-to-all: each ordered pair is a commodity.
	p := graph.New()
	var ids []graph.NodeID
	for _, name := range []string{"a", "b", "c"} {
		ids = append(ids, p.AddNode(name, rat.One()))
	}
	p.AddLink(ids[0], ids[1], rat.One())
	p.AddLink(ids[1], ids[2], rat.One())
	p.AddLink(ids[0], ids[2], rat.One())

	// Sources == targets: every ordered pair of distinct nodes is a
	// commodity.
	pr, err := gossip.NewProblem(p, ids, ids)
	if err != nil {
		t.Fatalf("gossip.NewProblem: %v", err)
	}
	f, _ := solve(t, p, composite.GossipMember(pr, rat.One()))
	// Every node sends 2 unit messages per gossip and its out-port allows
	// 1 per time unit → TP = 1/2 (direct sends saturate all ports).
	if !rat.Eq(f.Throughput, rat.New(1, 2)) {
		t.Errorf("TP = %s, want 1/2", f.Throughput.RatString())
	}
	if err := f.VerifyOnePort(func(core.Commodity) rat.Rat { return rat.One() }); err != nil {
		t.Errorf("one-port: %v", err)
	}
}

// TestSolveUniformFlowErrors: the flow fragment rejects commodity sets
// with no uniform-flow LP before declaring any variable.
func TestSolveUniformFlowErrors(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, b, rat.One())
	_ = c // isolated

	assemble := func(comms []core.Commodity) error {
		_, err := core.NewFlowFragment(context.Background(), lp.NewMaximize(), "", p, comms, core.NewOccupancy(p))
		return err
	}
	if err := assemble(nil); err == nil {
		t.Error("empty commodities should fail")
	}
	if err := assemble([]core.Commodity{{a, a}}); err == nil {
		t.Error("self commodity should fail")
	}
	if err := assemble([]core.Commodity{{a, b}, {a, b}}); err == nil {
		t.Error("duplicate commodity should fail")
	}
	if err := assemble([]core.Commodity{{a, c}}); err == nil {
		t.Error("unreachable destination should fail")
	}
}

func TestCancelCyclesRemovesCirculation(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, b, rat.One())
	p.AddLink(b, c, rat.One())

	f := core.NewFlow[core.Commodity](p)
	com := core.Commodity{a, b}
	f.Throughput = rat.New(1, 3)
	f.SetSend(a, b, com, rat.New(1, 3)) // genuine delivery
	// A useless circulation b→c→b.
	f.SetSend(b, c, com, rat.New(1, 5))
	f.SetSend(c, b, com, rat.New(1, 5))

	core.CancelCycles(f)

	if !rat.Eq(f.Send(a, b, com), rat.New(1, 3)) {
		t.Errorf("delivery edge changed: %s", f.Send(a, b, com).RatString())
	}
	if !rat.IsZero(f.Send(b, c, com)) || !rat.IsZero(f.Send(c, b, com)) {
		t.Error("circulation not cancelled")
	}
}

func TestCancelCyclesPartialOverlap(t *testing.T) {
	// Two overlapping cycles sharing an edge; cancellation must terminate
	// and leave an acyclic flow.
	p := graph.New()
	var n []graph.NodeID
	for _, name := range []string{"a", "b", "c", "d"} {
		n = append(n, p.AddNode(name, rat.One()))
	}
	p.AddLink(n[0], n[1], rat.One())
	p.AddLink(n[1], n[2], rat.One())
	p.AddLink(n[2], n[3], rat.One())
	p.AddLink(n[0], n[3], rat.One())

	f := core.NewFlow[core.Commodity](p)
	com := core.Commodity{n[0], n[2]}
	// Cycle a→b→a at rate 1/7 and a→b→c→d→a at rate 1/9.
	f.SetSend(n[0], n[1], com, rat.Add(rat.New(1, 7), rat.New(1, 9)))
	f.SetSend(n[1], n[0], com, rat.New(1, 7))
	f.SetSend(n[1], n[2], com, rat.New(1, 9))
	f.SetSend(n[2], n[3], com, rat.New(1, 9))
	f.SetSend(n[3], n[0], com, rat.New(1, 9))

	core.CancelCycles(f)

	// All edges should be gone: the whole flow was circulation.
	for k, m := range f.Sends {
		if r, ok := m[com]; ok && r.Sign() > 0 {
			t.Errorf("edge %v still carries %s", k, r.RatString())
		}
	}
}

func TestSolveUniformFlowOnTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("medium LP in -short mode")
	}
	cfg := topology.DefaultTiersConfig(17)
	p := topology.Tiers(cfg)
	parts := p.Participants()
	f, stats := solve(t, p, scatterMember(t, p, parts[0], parts[1:]...))
	if f.Throughput.Sign() <= 0 {
		t.Error("throughput should be positive on a connected platform")
	}
	if err := f.VerifyOnePort(func(core.Commodity) rat.Rat { return rat.One() }); err != nil {
		t.Errorf("one-port: %v", err)
	}
	t.Logf("tiers scatter: TP=%s vars=%d cons=%d pivots=%d",
		f.Throughput.RatString(), stats.Vars, stats.Constraints, stats.Pivots)
}
