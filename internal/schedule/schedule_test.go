package schedule_test

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/scatter"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// solve solves one scatter, gossip or reduce problem on its own: a one-member
// composite, the single LP path, whose member schedules itself.
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

func fig2Schedule(t *testing.T) (*scatter.Solution, *schedule.Schedule) {
	t.Helper()
	p, src, targets := topology.PaperFig2()
	pr, err := scatter.NewProblem(p, src, targets)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	ms := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr})
	sched, err := ms.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return ms.Part.(*scatter.Solution), sched
}

// TestPaperFig4Schedule builds the concrete periodic schedule for the
// Fig. 2 scatter: it must verify, fit in the period, and deliver exactly
// TP·T messages of each type per period.
func TestPaperFig4Schedule(t *testing.T) {
	sol, sched := fig2Schedule(t)
	if err := sched.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(sched.Slots) == 0 {
		t.Fatal("no slots")
	}
	// Messages delivered per period: every m_t crosses its final edge; the
	// per-label totals count every hop, so each label's total is at least
	// TP·T (relaying adds more).
	perPeriod := rat.Mul(sol.Throughput(), sched.Period)
	for label, total := range sched.TotalMessages() {
		if total.Cmp(perPeriod) < 0 {
			t.Errorf("label %s: %s messages per period, want ≥ %s",
				label, total.RatString(), perPeriod.RatString())
		}
	}
	t.Log("\n" + sched.Gantt())
}

func TestUnsplitProducesWholeMessages(t *testing.T) {
	_, sched := fig2Schedule(t)
	un := sched.Unsplit()
	if un.HasSplitMessages() {
		t.Error("Unsplit schedule still has fractional messages")
	}
	if err := un.Verify(); err != nil {
		t.Errorf("Unsplit Verify: %v", err)
	}
	// Scaling preserves the message-per-time ratio.
	ratio := rat.Div(un.Period, sched.Period)
	if !ratio.IsInt() {
		t.Errorf("Unsplit scaled by non-integer %s", ratio.RatString())
	}
	for label, total := range sched.TotalMessages() {
		want := rat.Mul(total, ratio)
		if got := un.TotalMessages()[label]; got == nil || !rat.Eq(got, want) {
			t.Errorf("label %s: unsplit total %v, want %s", label, got, want.RatString())
		}
	}
}

func TestBusyTimeWithinPeriod(t *testing.T) {
	_, sched := fig2Schedule(t)
	if sched.BusyTime().Cmp(sched.Period) > 0 {
		t.Errorf("busy time %s exceeds period %s",
			sched.BusyTime().RatString(), sched.Period.RatString())
	}
}

func TestVerifyCatchesBrokenSchedules(t *testing.T) {
	_, sched := fig2Schedule(t)

	// Overlapping senders within one slot.
	if len(sched.Slots) > 0 && len(sched.Slots[0].Transfers) > 0 {
		broken := *sched
		slot := broken.Slots[0]
		dup := slot.Transfers[0]
		slot.Transfers = append(slot.Transfers, dup)
		broken.Slots = append([]schedule.Slot{slot}, broken.Slots[1:]...)
		if err := broken.Verify(); err == nil {
			t.Error("duplicate sender in slot accepted")
		}
	}

	// Slot past the period.
	broken2 := *sched
	broken2.Period = rat.New(1, 1000)
	if err := broken2.Verify(); err == nil {
		t.Error("slot beyond period accepted")
	}
}

// TestMergeFlowsRejectsOverloadedMember: a single member whose own
// transfers oversubscribe a port (busy > 1 per time unit) has no schedule.
func TestMergeFlowsRejectsOverloadedMember(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, b, rat.One())
	p.AddEdge(a, c, rat.One())
	member := core.Demand{Transfers: []core.FlowTransfer{
		{From: a, To: b, Label: "m_b", Size: rat.One(), Rate: rat.New(3, 4)},
		{From: a, To: c, Label: "m_c", Size: rat.One(), Rate: rat.New(3, 4)}, // a's out port: 3/2 > 1
	}}
	if _, err := schedule.MergeFlows(p, big.NewInt(4), []core.Demand{member}); err == nil {
		t.Error("overloaded member accepted")
	}
}

func TestGanttRendering(t *testing.T) {
	_, sched := fig2Schedule(t)
	g := sched.Gantt()
	for _, want := range []string{"period", "slot boundaries:", "Ps→"} {
		if !strings.Contains(g, want) {
			t.Errorf("Gantt missing %q:\n%s", want, g)
		}
	}
}

func TestScheduleFromGossipFlow(t *testing.T) {
	p := graph.New()
	var ids []graph.NodeID
	for _, name := range []string{"a", "b", "c"} {
		ids = append(ids, p.AddNode(name, rat.One()))
	}
	p.AddLink(ids[0], ids[1], rat.One())
	p.AddLink(ids[1], ids[2], rat.One())
	p.AddLink(ids[0], ids[2], rat.One())
	// Sources == targets: every ordered pair of distinct nodes is a stream.
	pr, err := scatter.NewGossipProblem(p, ids, ids)
	if err != nil {
		t.Fatalf("gossip.NewProblem: %v", err)
	}
	sched, err := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// All 6 streams appear.
	if got := len(sched.TotalMessages()); got != 6 {
		t.Errorf("labels = %d, want 6", got)
	}
}

// TestMergeFlows merges two members sharing one platform: the union must
// decompose into valid matchings, keep per-member labels, and scale the
// compute load by the period.
func TestMergeFlows(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddLink(a, b, rat.New(1, 2))
	p.AddLink(b, c, rat.New(1, 2))

	// Member 0 streams a→b at rate 1 (busy 1/2); member 1 streams b→c at
	// rate 1/2 and computes at c for 1/4 per time unit.
	members := []core.Demand{
		{Transfers: []core.FlowTransfer{{From: a, To: b, Label: "op0:x", Size: rat.One(), Rate: rat.One()}}},
		{
			Transfers:   []core.FlowTransfer{{From: b, To: c, Label: "op1:y", Size: rat.One(), Rate: rat.New(1, 2)}},
			ComputeTime: map[graph.NodeID]rat.Rat{c: rat.New(1, 4)},
		},
	}
	sched, err := schedule.MergeFlows(p, big.NewInt(4), members)
	if err != nil {
		t.Fatalf("MergeFlows: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
	totals := sched.TotalMessages()
	if got := totals["op0:x"]; got == nil || !rat.Eq(got, rat.Int(4)) {
		t.Errorf("op0:x moved %v messages per period, want 4", got)
	}
	if got := totals["op1:y"]; got == nil || !rat.Eq(got, rat.Int(2)) {
		t.Errorf("op1:y moved %v messages per period, want 2", got)
	}
	if got := sched.ComputeLoad[c]; got == nil || !rat.Eq(got, rat.One()) {
		t.Errorf("compute load at c = %v, want 1 (1/4 · period 4)", got)
	}
}

// TestMergeFlowsRejectsOverload: members that jointly oversubscribe a
// port cannot be laid out in the period.
func TestMergeFlowsRejectsOverload(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.One())

	members := []core.Demand{
		{Transfers: []core.FlowTransfer{{From: a, To: b, Label: "op0:x", Size: rat.One(), Rate: rat.New(3, 4)}}},
		{Transfers: []core.FlowTransfer{{From: a, To: b, Label: "op1:y", Size: rat.One(), Rate: rat.New(1, 2)}}},
	}
	if _, err := schedule.MergeFlows(p, big.NewInt(4), members); err == nil {
		t.Fatal("oversubscribed port should fail to decompose")
	}
}
