package composite

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
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
	got := solve(t, p, Member{Weight: rat.One(), Problem: memberPr})
	want := got.Members[0].Part.(*reduce.Solution)
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
	plain := solve(t, p, Member{Weight: rat.One(), Problem: plainPr})

	var members []Member
	for _, target := range order {
		pr, err := reduce.NewProblem(p, order, target)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, Member{Weight: rat.One(), Problem: pr})
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
	pre, err := reduce.NewPrefixProblem(p, order)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p,
		Member{Weight: rat.One(), Problem: sc},
		Member{Weight: rat.One(), Problem: go1},
		Member{Weight: rat.Int(2), Problem: red},
		Member{Weight: rat.One(), Problem: pre},
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
	if _, err := NewProblem(p, []Member{{Weight: rat.Zero(), Problem: red}}); err == nil {
		t.Error("zero weight should fail")
	}
	other, _, _ := topology.PaperFig6()
	otherRed, err := reduce.NewProblem(other, []graph.NodeID{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(p, []Member{{Weight: rat.One(), Problem: otherRed}}); err == nil {
		t.Error("member on a different platform should fail")
	}
}

// TestNewProblemCopiesWeights: the composite keeps its own copy of every
// member weight, so mutating the caller's value after NewProblem does not
// change the rate the member runs at.
func TestNewProblemCopiesWeights(t *testing.T) {
	p, a, b := twoNode(t, rat.One(), rat.One())
	pr, err := scatter.NewProblem(p, a, []graph.NodeID{b})
	if err != nil {
		t.Fatal(err)
	}
	w := rat.One()
	cp, err := NewProblem(p, []Member{{Weight: w, Problem: pr}})
	if err != nil {
		t.Fatal(err)
	}
	w.SetInt64(7)
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ms := sol.Members[0]
	if !rat.Eq(ms.Weight, rat.One()) || !rat.Eq(ms.Throughput, sol.TP) {
		t.Errorf("member runs at weight %s (TP %s, member %s), want 1",
			ms.Weight.RatString(), sol.TP.RatString(), ms.Throughput.RatString())
	}
}

// TestSolveWrapsMemberError: a member whose fragment cannot be assembled
// fails the solve with its index and the fragment's own error.
func TestSolveWrapsMemberError(t *testing.T) {
	p, a, _ := twoNode(t, rat.One(), rat.One())
	cp, err := NewProblem(p, []Member{{Weight: rat.One(), Problem: &scatter.Problem{Platform: p, Source: a}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cp.SolveCtx(context.Background())
	if err == nil || err.Error() != "composite: member 0: core: no commodities" {
		t.Errorf("SolveCtx error = %v, want %q", err, "composite: member 0: core: no commodities")
	}
}

// TestMemberScheduleDeterministic pins the sort in flows: the matching
// decomposition is order-sensitive — when one edge carries several
// equal-weight message types, its tie-break follows insertion order — and
// the member's rates live in maps, so without the sort the slot layout
// would vary run to run. A gossip from four sources through a hub to one
// target puts four equal-rate commodities on the hub's one out-edge;
// rebuilding its schedule must always yield the same slots.
func TestMemberScheduleDeterministic(t *testing.T) {
	p := graph.New()
	hub := p.AddNode("H", rat.One())
	target := p.AddNode("T", rat.One())
	p.AddEdge(hub, target, rat.One())
	var sources []graph.NodeID
	for _, name := range []string{"S0", "S1", "S2", "S3"} {
		s := p.AddNode(name, rat.One())
		p.AddEdge(s, hub, rat.One())
		sources = append(sources, s)
	}
	pr, err := gossip.NewProblem(p, sources, []graph.NodeID{target})
	if err != nil {
		t.Fatal(err)
	}
	ms := solve(t, p, Member{Weight: rat.One(), Problem: pr}).Members[0]
	build := func() string {
		sched, err := ms.Schedule()
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := sched.Verify(); err != nil {
			t.Fatalf("schedule invalid: %v", err)
		}
		return sched.Gantt()
	}
	ref := build()
	if !strings.Contains(ref, "period 4, 4 slots") {
		t.Fatalf("want the hub's four unit streams in 4 slots of period 4:\n%s", ref)
	}
	for i := 0; i < 16; i++ {
		if got := build(); got != ref {
			t.Fatalf("schedule differs between identical builds (iteration %d):\n--- first\n%s\n--- now\n%s", i, ref, got)
		}
	}
}
