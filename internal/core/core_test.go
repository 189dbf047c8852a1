package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rat"
)

func twoNode(t *testing.T) (*graph.Platform, graph.NodeID, graph.NodeID) {
	t.Helper()
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.New(1, 2))
	return p, a, b
}

func TestOccupancyBuilderConstraints(t *testing.T) {
	p, a, b := twoNode(t)
	m := lp.NewMaximize()
	x := m.Var("x") // messages a→b per time unit, each taking 1/2
	y := m.Var("y") // messages b→a per time unit, each taking 1/2
	m.SetObjective(x, rat.One())
	m.SetObjective(y, rat.One())

	occ := NewOccupancy(p)
	occ.Add(a, b, x, rat.New(1, 2))
	occ.Add(b, a, y, rat.New(1, 2))
	occ.AddConstraints(m)

	sol, err := m.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Each direction is limited by its edge occupation: x/2 ≤ 1 → x ≤ 2,
	// same for y, and ports don't conflict (different directions), so the
	// optimum is 4.
	if !rat.Eq(sol.Objective, rat.Int(4)) {
		t.Errorf("objective = %s, want 4", sol.Objective.RatString())
	}
}

func TestOccupancyBuilderOnePortCouplesEdges(t *testing.T) {
	// One sender with two outgoing edges: the out-port constraint must
	// couple them.
	p := graph.New()
	s := p.AddNode("s", rat.One())
	u := p.AddNode("u", rat.One())
	v := p.AddNode("v", rat.One())
	p.AddEdge(s, u, rat.One())
	p.AddEdge(s, v, rat.One())

	m := lp.NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	m.SetObjective(y, rat.One())
	occ := NewOccupancy(p)
	occ.Add(s, u, x, rat.One())
	occ.Add(s, v, y, rat.One())
	occ.AddConstraints(m)

	sol, err := m.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !rat.Eq(sol.Objective, rat.One()) {
		t.Errorf("objective = %s, want 1 (one-port serializes the sends)", sol.Objective.RatString())
	}
}

func TestFlowSetGetSend(t *testing.T) {
	p, a, b := twoNode(t)
	f := NewFlow[int](p)
	f.SetSend(a, b, 7, rat.New(2, 3))
	if !rat.Eq(f.Send(a, b, 7), rat.New(2, 3)) {
		t.Error("Send round trip failed")
	}
	if !rat.IsZero(f.Send(b, a, 7)) || !rat.IsZero(f.Send(a, b, 8)) {
		t.Error("absent sends should read as zero")
	}
	// Zero rates are dropped.
	f.SetSend(b, a, 1, rat.Zero())
	if _, ok := f.Sends[EdgeKey{b, a}]; ok {
		t.Error("zero rate should not be stored")
	}
}

func TestFlowNegativeRatePanics(t *testing.T) {
	p, a, b := twoNode(t)
	f := NewFlow[int](p)
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	f.SetSend(a, b, 0, rat.Int(-1))
}

// capacity checks the flow's sends, as unit-size transfers, against the
// platform's capacity.
func capacity[C comparable](f *Flow[C]) error {
	return VerifyCapacity(f.Platform, Demand{Transfers: f.Transfers(func(C) string { return "m" })})
}

// wantErr requires err to carry exactly the text want.
func wantErr(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
}

func TestFlowEdgeOccupancyAndOnePort(t *testing.T) {
	p, a, b := twoNode(t)
	f := NewFlow[int](p)
	f.SetSend(a, b, 0, rat.One()) // 1 msg/unit × cost 1/2 → occupation 1/2
	f.SetSend(a, b, 1, rat.One())
	if err := capacity(f); err != nil {
		t.Errorf("occupation 1 rejected: %v", err)
	}
	// Push it over the edge capacity.
	f.SetSend(a, b, 2, rat.One())
	wantErr(t, capacity(f), "core: edge a→b occupation 3/2 > 1")
}

func TestFlowOnePortNodeAggregation(t *testing.T) {
	// Two parallel edges out of one node, each individually fine, but the
	// node's send port is oversubscribed.
	p := graph.New()
	s := p.AddNode("s", rat.One())
	u := p.AddNode("u", rat.One())
	v := p.AddNode("v", rat.One())
	p.AddEdge(s, u, rat.One())
	p.AddEdge(s, v, rat.One())
	f := NewFlow[int](p)
	f.SetSend(s, u, 0, rat.New(3, 4))
	f.SetSend(s, v, 0, rat.New(3, 4))
	wantErr(t, capacity(f), "core: node s sends for 3/2 > 1 per time unit")
	// Receiving side aggregation.
	q := graph.New()
	x := q.AddNode("x", rat.One())
	y := q.AddNode("y", rat.One())
	z := q.AddNode("z", rat.One())
	q.AddEdge(x, z, rat.One())
	q.AddEdge(y, z, rat.One())
	g := NewFlow[int](q)
	g.SetSend(x, z, 0, rat.New(3, 4))
	g.SetSend(y, z, 0, rat.New(3, 4))
	wantErr(t, capacity(g), "core: node z receives for 3/2 > 1 per time unit")
}

// TestVerifyCapacitySumsDemands: the check charges every demand it is
// given to the same edges, ports and compute nodes, weighs a transfer by
// its size and its edge's cost, and reports the first violation in a
// fixed order — edges, then send ports, receive ports and compute time,
// each by node — whatever order the maps iterate in.
func TestVerifyCapacitySumsDemands(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddLink(a, b, rat.New(1, 2))
	p.AddLink(a, c, rat.One())
	half := Demand{
		Transfers:   []FlowTransfer{{From: a, To: b, Label: "x", Size: rat.Int(2), Rate: rat.New(1, 2)}},
		ComputeTime: map[graph.NodeID]rat.Rat{c: rat.New(2, 3)},
	}
	if err := VerifyCapacity(p, half); err != nil {
		t.Fatalf("one demand rejected: %v", err)
	}
	// Together the two demands fill a→b exactly but give c 4/3 of compute.
	wantErr(t, VerifyCapacity(p, half, half), "core: node c computes for 4/3 > 1 per time unit")

	// Every edge and both ports of a are overloaded: the lowest edge wins,
	// 60 times over in case the text depended on map order.
	over := Demand{Transfers: []FlowTransfer{
		{From: a, To: c, Label: "y", Size: rat.One(), Rate: rat.Int(2)},
		{From: c, To: a, Label: "y", Size: rat.One(), Rate: rat.Int(2)},
		{From: a, To: b, Label: "y", Size: rat.One(), Rate: rat.Int(3)},
	}}
	for i := 0; i < 60; i++ {
		wantErr(t, VerifyCapacity(p, over), "core: edge a→b occupation 3/2 > 1")
	}
	// Within every edge, a's send port is the first violation.
	ports := Demand{Transfers: []FlowTransfer{
		{From: b, To: a, Label: "z", Size: rat.One(), Rate: rat.Int(2)},
		{From: a, To: b, Label: "z", Size: rat.One(), Rate: rat.Int(1)},
		{From: a, To: c, Label: "z", Size: rat.One(), Rate: rat.New(3, 4)},
	}}
	wantErr(t, VerifyCapacity(p, ports), "core: node a sends for 5/4 > 1 per time unit")
}

func TestFlowPeriod(t *testing.T) {
	p, a, b := twoNode(t)
	f := NewFlow[int](p)
	f.Throughput = rat.New(1, 2)
	f.SetSend(a, b, 0, rat.New(1, 3))
	f.SetSend(b, a, 1, rat.New(5, 6))
	if got := f.Period(); got.Int64() != 6 {
		t.Errorf("Period = %s, want 6", got)
	}
}

func TestFlowInflowOutflow(t *testing.T) {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, b, rat.One())
	p.AddEdge(b, c, rat.One())
	f := NewFlow[string](p)
	f.SetSend(a, b, "m", rat.New(2, 5))
	f.SetSend(b, c, "m", rat.New(2, 5))
	f.SetSend(a, b, "n", rat.New(1, 5))
	f.SetSend(b, c, "skipped", rat.One())
	in, out := f.InflowOutflow([]string{"n", "m"})
	if !rat.Eq(&in[1][b], rat.New(2, 5)) || !rat.Eq(&out[1][b], rat.New(2, 5)) {
		t.Errorf("relay in=%s out=%s, want 2/5 both", in[1][b].RatString(), out[1][b].RatString())
	}
	if !rat.IsZero(&in[1][a]) || !rat.Eq(&out[1][a], rat.New(2, 5)) {
		t.Errorf("source in=%s out=%s", in[1][a].RatString(), out[1][a].RatString())
	}
	if !rat.Eq(&in[0][b], rat.New(1, 5)) || !rat.IsZero(&out[0][b]) || !rat.IsZero(&in[0][c]) {
		t.Errorf("n at b: in=%s out=%s; at c: in=%s", in[0][b].RatString(), out[0][b].RatString(), in[0][c].RatString())
	}
	if !rat.Eq(&in[1][c], rat.New(2, 5)) {
		t.Errorf("an unlisted type was counted: in(c, m) = %s", in[1][c].RatString())
	}
}
