package composite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
)

// verifyPlatform is the platform of the Verify table: the collectives'
// nodes, and beside them a gadget of routers u, v, w, x, y that no
// collective uses. A rate the table adds on the gadget breaks one
// capacity or balance check and leaves every other one intact.
//
//	s ↔ t1, s ↔ r ↔ t2      unit links (the forwarding kinds)
//	p0 ↔ p1 ↔ p2            links of cost 1/10 (the reduce family)
//	u → v, u → w            cost 1, and 1/4 back: u's heavy send side
//	x → u, y → u            cost 1, and 1/4 back: u's heavy receive side
type verifyPlatform struct {
	p             *graph.Platform
	s, t1, t2     graph.NodeID
	order         []graph.NodeID
	u, v, w, x, y graph.NodeID
}

func newVerifyPlatform() *verifyPlatform {
	p := graph.New()
	vp := &verifyPlatform{p: p}
	vp.s, vp.t1, vp.t2 = p.AddNode("s", rat.One()), p.AddNode("t1", rat.One()), p.AddNode("t2", rat.One())
	r := p.AddRouter("r")
	p.AddLink(vp.s, vp.t1, rat.One())
	p.AddLink(vp.s, r, rat.One())
	p.AddLink(r, vp.t2, rat.One())
	vp.order = []graph.NodeID{p.AddNode("p0", rat.One()), p.AddNode("p1", rat.One()), p.AddNode("p2", rat.One())}
	p.AddLink(vp.order[0], vp.order[1], rat.New(1, 10))
	p.AddLink(vp.order[1], vp.order[2], rat.New(1, 10))
	vp.u, vp.v, vp.w, vp.x, vp.y = p.AddRouter("u"), p.AddRouter("v"), p.AddRouter("w"), p.AddRouter("x"), p.AddRouter("y")
	for _, heavy := range [][2]graph.NodeID{{vp.u, vp.v}, {vp.u, vp.w}, {vp.x, vp.u}, {vp.y, vp.u}} {
		p.AddEdge(heavy[0], heavy[1], rat.One())
		p.AddEdge(heavy[1], heavy[0], rat.New(1, 4))
	}
	return vp
}

// solvePart solves pr on its own and returns its part.
func (vp *verifyPlatform) solvePart(t *testing.T, pr core.Collective, err error) core.Part {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return solve(t, vp.p, Member{Weight: rat.One(), Problem: pr}).Members[0].Part
}

// gadgetRows are the rows every kind shares, written against add, the
// kind's own way to add a rate of one message type on an edge. Rates added
// both ways round a cycle are a circulation, which every balance check
// accepts, so the capacity rows break capacity alone.
func (vp *verifyPlatform) gadgetRows(add func(from, to graph.NodeID, rate rat.Rat)) map[string]func() {
	round := func(a, b graph.NodeID, rate rat.Rat) {
		add(a, b, rate)
		add(b, a, rate)
	}
	threeQuarters := rat.New(3, 4)
	return map[string]func(){
		// u→v carries 2 against cost 1.
		"edge": func() { round(vp.u, vp.v, rat.Int(2)) },
		// u→v and u→w carry 3/4 each; their return edges 3/16 each.
		"send port": func() { round(vp.u, vp.v, threeQuarters); round(vp.u, vp.w, threeQuarters) },
		"receive port": func() {
			round(vp.x, vp.u, threeQuarters)
			round(vp.y, vp.u, threeQuarters)
		},
		// A lone quarter-rate send leaves u short and v over.
		"conservation": func() { add(vp.u, vp.v, rat.New(1, 4)) },
	}
}

// addSend adds delta to the rate of c on from→to.
func addSend[C comparable](f *core.Flow[C], from, to graph.NodeID, c C, delta rat.Rat) {
	f.SetSend(from, to, c, rat.Add(f.Send(from, to, c), delta))
}

// scale multiplies every rate of the map by k.
func scale[K comparable](rates map[K]rat.Rat, k rat.Rat) {
	for key, r := range rates {
		rates[key] = rat.Mul(r, k)
	}
}

// scaleFlow multiplies every rate of the flow by k: every conservation
// law still holds, and every sink receives k·TP.
func scaleFlow(f *core.Flow[core.Commodity], k rat.Rat) {
	for _, types := range f.Sends {
		scale(types, k)
	}
}

// verifyCase is one kind's rows: a fresh solved part per row, with the
// row's change to its rates, and the text Verify must return.
type verifyCase struct {
	kind string
	rows func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func())
	want map[string]string
}

// forwardingRows solves a scatter or gossip and changes its flow: the
// gadget rows on commodity c, and a delivery row that halves every rate.
func forwardingRows(f *core.Flow[core.Commodity], c core.Commodity, vp *verifyPlatform) map[string]func() {
	rows := vp.gadgetRows(func(from, to graph.NodeID, rate rat.Rat) { addSend(f, from, to, c, rate) })
	rows["delivery"] = func() { scaleFlow(f, rat.New(1, 2)) }
	return rows
}

// reduceRows changes a reduce-family solution: the gadget rows on the
// leaf v[0,0]; a delivery row that halves every transfer and task; and a
// compute row that doubles them with the throughput, so every balance
// still holds and only the (compute-bound) nodes exceed 1.
func reduceRows(s *reduce.Rates, vp *verifyPlatform) map[string]func() {
	leaf := reduce.Range{K: 0, M: 0}
	rows := vp.gadgetRows(func(from, to graph.NodeID, rate rat.Rat) {
		k := reduce.SendKey{From: from, To: to, R: leaf}
		if s.Sends[k] == nil {
			s.Sends[k] = rat.Zero()
		}
		s.Sends[k] = rat.Add(s.Sends[k], rate)
	})
	rows["delivery"] = func() { scale(s.Sends, rat.New(1, 2)); scale(s.Tasks, rat.New(1, 2)) }
	rows["compute"] = func() {
		scale(s.Sends, rat.Int(2))
		scale(s.Tasks, rat.Int(2))
		s.TP = rat.Mul(s.TP, rat.Int(2))
	}
	return rows
}

var verifyCases = []verifyCase{
	{"scatter", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := scatter.NewProblem(vp.p, vp.s, []graph.NodeID{vp.t1, vp.t2})
		sol := vp.solvePart(t, pr, err).(*scatter.Solution)
		return sol, forwardingRows(sol.Flow, core.Commodity{Src: vp.s, Dst: vp.t1}, vp)
	}, map[string]string{
		"edge":         "scatter: core: edge u→v occupation 2 > 1",
		"send port":    "scatter: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "scatter: core: node u receives for 3/2 > 1 per time unit",
		"conservation": "scatter: conservation violated at u for m_t1: in=0 out=1/4",
		"delivery":     "scatter: t1 receives m_t1 at 1/4, want TP=1/2",
	}},
	{"gossip", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := scatter.NewGossipProblem(vp.p, []graph.NodeID{vp.s, vp.t2}, []graph.NodeID{vp.t1})
		sol := vp.solvePart(t, pr, err).(*scatter.GossipSolution)
		return sol, forwardingRows(sol.Flow, core.Commodity{Src: vp.t2, Dst: vp.t1}, vp)
	}, map[string]string{
		"edge":         "gossip: core: edge u→v occupation 2 > 1",
		"send port":    "gossip: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "gossip: core: node u receives for 3/2 > 1 per time unit",
		"conservation": "gossip: conservation violated at u for m_t2_t1: in=0 out=1/4",
		"delivery":     "gossip: t1 receives m_s_t1 at 1/4, want TP=1/2",
	}},
	{"broadcast", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := scatter.NewBroadcastProblem(vp.p, vp.s, []graph.NodeID{vp.t1, vp.t2})
		sol := vp.solvePart(t, pr, err).(*scatter.BroadcastSolution)
		c := core.Commodity{Src: vp.s, Dst: vp.t2}
		// A copy added to the flows is carried: the edge's carry rate
		// rises with it, as the bundling bound requires.
		rows := vp.gadgetRows(func(from, to graph.NodeID, rate rat.Rat) {
			addSend(sol.Flow, from, to, c, rate)
			sol.Carry[core.EdgeKey{From: from, To: to}] = sol.Flow.Send(from, to, c)
		})
		rows["delivery"] = func() { scaleFlow(sol.Flow, rat.New(1, 2)) }
		rows["bundling"] = func() { sol.Carry[core.EdgeKey{From: vp.s, To: vp.t1}] = rat.New(1, 4) }
		return sol, rows
	}, map[string]string{
		"edge":         "broadcast: core: edge u→v occupation 2 > 1",
		"send port":    "broadcast: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "broadcast: core: node u receives for 3/2 > 1 per time unit",
		"conservation": "broadcast: conservation violated at u for b_t2: in=0 out=1/4",
		"delivery":     "broadcast: t1 receives b_t1 at 1/4, want TP=1/2",
		"bundling":     "broadcast: flow for target t1 on s→t1 exceeds the edge's carry rate",
	}},
	{"reduce", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := reduce.NewProblem(vp.p, vp.order, vp.order[2])
		sol := vp.solvePart(t, pr, err).(*reduce.Solution)
		return sol, reduceRows(&sol.Rates, vp)
	}, map[string]string{
		"edge":         "reduce: core: edge u→v occupation 2 > 1",
		"send port":    "reduce: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "reduce: core: node u receives for 3/2 > 1 per time unit",
		"compute":      "reduce: core: node p0 computes for 2 > 1 per time unit",
		"conservation": "reduce: balance at u for v[0,0] is -1/4, want 0",
		"delivery":     "reduce: balance at p2 for v[0,2] is 3/4, want 3/2",
	}},
	{"gather", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := reduce.NewGatherProblem(vp.p, vp.order, vp.order[2], rat.One())
		sol := vp.solvePart(t, pr, err).(*reduce.Solution)
		rows := reduceRows(&sol.Rates, vp)
		delete(rows, "compute") // a gather's merges are free
		return sol, rows
	}, map[string]string{ // a gather is a reduce, and says so
		"edge":         "reduce: core: edge u→v occupation 2 > 1",
		"send port":    "reduce: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "reduce: core: node u receives for 3/2 > 1 per time unit",
		"conservation": "reduce: balance at u for v[0,0] is -1/4, want 0",
		"delivery":     "reduce: balance at p2 for v[0,2] is 5/2, want 5",
	}},
	{"prefix", func(t *testing.T, vp *verifyPlatform) (core.Part, map[string]func()) {
		pr, err := reduce.NewPrefixProblem(vp.p, vp.order)
		sol := vp.solvePart(t, pr, err).(*reduce.PrefixSolution)
		return sol, reduceRows(&sol.Rates, vp)
	}, map[string]string{
		"edge":         "prefix: core: edge u→v occupation 2 > 1",
		"send port":    "prefix: core: node u sends for 3/2 > 1 per time unit",
		"receive port": "prefix: core: node u receives for 3/2 > 1 per time unit",
		"compute":      "prefix: core: node p0 computes for 2 > 1 per time unit",
		"conservation": "prefix: balance at u for v[0,0] is -1/4, want 0",
		"delivery":     "prefix: balance at p1 for v[0,1] is 1/2, want 1",
	}},
}

// TestVerifyRejectsEachViolation: every kind's Verify rejects a solution
// that breaks exactly one of its constraints — an edge's occupation, a
// send port, a receive port, a compute node (reduce family), conservation
// at a forwarding node or delivery at a sink — and names the first
// violation. Each row changes the solved part through its own rates
// (Flow.Sends, Carry, or the reduce family's Sends, Tasks and TP), never
// through its Demand, so a demand that stopped reading the rates would
// let the row pass.
func TestVerifyRejectsEachViolation(t *testing.T) {
	vp := newVerifyPlatform()
	for _, vc := range verifyCases {
		for name, want := range vc.want {
			t.Run(vc.kind+"/"+name, func(t *testing.T) {
				part, rows := vc.rows(t, vp)
				if err := part.Verify(); err != nil {
					t.Fatalf("solved part rejected before the change: %v", err)
				}
				rows[name]()
				if err := part.Verify(); err == nil || err.Error() != want {
					t.Errorf("Verify = %v, want %q", err, want)
				}
			})
		}
	}
}

// TestCompositeVerifyRejectsSharedOverload: two scatters out of s, each
// solved alone at its own optimum, fill s's send port once each. Each
// member verifies; run together they ask s to send for 2 per time unit,
// which only the composite's check over all members' demands sees.
func TestCompositeVerifyRejectsSharedOverload(t *testing.T) {
	vp := newVerifyPlatform()
	var members []Member
	var parts []*MemberSolution
	for _, target := range []graph.NodeID{vp.t1, vp.t2} {
		pr, err := scatter.NewProblem(vp.p, vp.s, []graph.NodeID{target})
		part := vp.solvePart(t, pr, err)
		if err := part.Verify(); err != nil {
			t.Fatalf("member to %s rejected alone: %v", vp.p.Node(target).Name, err)
		}
		members = append(members, Member{Weight: rat.One(), Problem: pr})
		parts = append(parts, &MemberSolution{Weight: rat.One(), Throughput: part.Throughput(), Part: part})
	}
	cp, err := NewProblem(vp.p, members)
	if err != nil {
		t.Fatal(err)
	}
	sol := &Solution{Problem: cp, TP: rat.One(), Members: parts}
	want := "composite: members together: core: node s sends for 2 > 1 per time unit"
	if err := sol.Verify(); err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %q", err, want)
	}
}
