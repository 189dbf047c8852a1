package composite

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/prefix"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// twoNode returns a symmetric two-node platform: both directions cost c,
// both nodes speed s.
func twoNode(t *testing.T, c, s rat.Rat) (*graph.Platform, graph.NodeID, graph.NodeID) {
	t.Helper()
	p := graph.New()
	a := p.AddNode("a", s)
	b := p.AddNode("b", s)
	p.AddLink(a, b, c)
	return p, a, b
}

// solve solves the members as one shared-capacity LP; a single member is
// the plain solve of its collective.
func solve(t *testing.T, p *graph.Platform, members ...Member) *Solution {
	t.Helper()
	cp, err := NewProblem(p, members)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestSingleReduceMemberMatchesPlainSolve: a one-member composite is the
// plain solve — on Figure 6 it reaches the paper's optimum TP = 1 at
// period 1, and the member's own reduce solution agrees with the
// composite on both.
func TestSingleReduceMemberMatchesPlainSolve(t *testing.T) {
	p, order, target := topology.PaperFig6()
	memberPr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	got := solve(t, p, ReduceMember(memberPr, rat.One()))
	want := got.Members[0].Reduce
	if !rat.Eq(got.TP, rat.One()) || !rat.Eq(got.TP, want.Throughput()) {
		t.Errorf("TP = %s, member TP = %s, want 1", got.TP.RatString(), want.Throughput().RatString())
	}
	if got.Period().Cmp(big.NewInt(1)) != 0 || got.Period().Cmp(want.Period()) != 0 {
		t.Errorf("period = %s, member period = %s, want 1", got.Period().String(), want.Period().String())
	}
	if err := got.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestTwoConcurrentReducesShareCapacity(t *testing.T) {
	// Reduce-scatter over two symmetric nodes: member 0 reduces to a,
	// member 1 to b. The optimal supports use opposite link directions and
	// distinct compute nodes, so the common rate equals the standalone
	// reduce throughput.
	p, a, b := twoNode(t, rat.One(), rat.One())
	order := []graph.NodeID{a, b}

	plainPr, err := reduce.NewProblem(p, order, a)
	if err != nil {
		t.Fatal(err)
	}
	plain := solve(t, p, ReduceMember(plainPr, rat.One()))

	var members []Member
	for _, target := range order {
		pr, err := reduce.NewProblem(p, order, target)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, ReduceMember(pr, rat.One()))
	}
	sol := solve(t, p, members...)
	if !rat.Eq(sol.TP, plain.Throughput()) {
		t.Errorf("concurrent TP = %s, want standalone %s", sol.TP.RatString(), plain.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("merged schedule invalid: %v", err)
	}
}

func TestMixedMembersVerifyAndSchedule(t *testing.T) {
	// A scatter and a gossip superposed on the Fig-6 triangle, plus a
	// reduce and a prefix — all competing for the same ports.
	p, order, target := topology.PaperFig6()

	sc, err := scatter.NewProblem(p, order[0], order[1:])
	if err != nil {
		t.Fatal(err)
	}
	go1, err := gossip.NewProblem(p, order[:2], order[1:])
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := prefix.NewProblem(p, order)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p,
		ScatterMember(sc, rat.One()),
		GossipMember(go1, rat.One()),
		ReduceMember(red, rat.Int(2)),
		PrefixMember(pre, rat.One()),
	)
	if sol.TP.Sign() <= 0 {
		t.Fatal("expected positive common throughput")
	}
	// The weighted member must run at exactly twice the base rate.
	if !rat.Eq(sol.Members[2].Throughput, rat.Mul(rat.Int(2), sol.TP)) {
		t.Errorf("weighted member TP = %s, want 2·%s",
			sol.Members[2].Throughput.RatString(), sol.TP.RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("merged schedule invalid: %v", err)
	}
}

func TestNewProblemRejectsBadMembers(t *testing.T) {
	p, order, target := topology.PaperFig6()
	red, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(p, nil); err == nil {
		t.Error("empty member list should fail")
	}
	if _, err := NewProblem(p, []Member{{Weight: rat.One()}}); err == nil {
		t.Error("member with no problem should fail")
	}
	if _, err := NewProblem(p, []Member{ReduceMember(red, rat.Zero())}); err == nil {
		t.Error("zero weight should fail")
	}
	if _, err := NewProblem(p, []Member{{Weight: rat.One(), Reduce: red, Prefix: &prefix.Problem{}}}); err == nil {
		t.Error("member with two problems should fail")
	}
	other, _, _ := topology.PaperFig6()
	otherRed, err := reduce.NewProblem(other, []graph.NodeID{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(p, []Member{ReduceMember(otherRed, rat.One())}); err == nil {
		t.Error("member on a different platform should fail")
	}
}
