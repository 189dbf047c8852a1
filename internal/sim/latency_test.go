package sim

import (
	"math/big"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/topology"
)

func TestRunLatencyDirectSend(t *testing.T) {
	// src → dst directly: every unit is delivered in the period it was
	// minted → latency 0.
	p := graph.New()
	src := p.AddNode("src", rat.One())
	dst := p.AddNode("dst", rat.One())
	p.AddEdge(src, dst, rat.One())
	ty := TypeID("m")
	m := &Model{
		Platform:  p,
		Period:    big.NewInt(1),
		Transfers: []Transfer{{From: src, To: dst, Type: ty, Count: big.NewInt(1)}},
		Sources:   map[Endpoint]bool{{src, ty}: true},
		Sinks:     map[Endpoint]bool{{dst, ty}: true},
	}
	res, err := RunLatency(m, 20)
	if err != nil {
		t.Fatalf("RunLatency: %v", err)
	}
	if res.MinLatency != 0 || res.MaxLatency != 0 {
		t.Errorf("latency = [%d,%d], want [0,0]", res.MinLatency, res.MaxLatency)
	}
	if res.Delivered[Endpoint{dst, ty}].Int64() != 20 {
		t.Errorf("delivered = %s, want 20", res.Delivered[Endpoint{dst, ty}])
	}
}

func TestRunLatencyRelayAddsAPeriod(t *testing.T) {
	// src → relay → dst: units wait one period in the relay buffer.
	p := graph.New()
	src := p.AddNode("src", rat.One())
	rel := p.AddRouter("relay")
	dst := p.AddNode("dst", rat.One())
	p.AddEdge(src, rel, rat.One())
	p.AddEdge(rel, dst, rat.One())
	ty := TypeID("m")
	m := &Model{
		Platform: p,
		Period:   big.NewInt(2),
		Transfers: []Transfer{
			{From: src, To: rel, Type: ty, Count: big.NewInt(1)},
			{From: rel, To: dst, Type: ty, Count: big.NewInt(1)},
		},
		Sources: map[Endpoint]bool{{src, ty}: true},
		Sinks:   map[Endpoint]bool{{dst, ty}: true},
	}
	res, err := RunLatency(m, 50)
	if err != nil {
		t.Fatalf("RunLatency: %v", err)
	}
	if res.MinLatency < 1 {
		t.Errorf("min latency = %d, want ≥ 1 (one relay hop)", res.MinLatency)
	}
	if res.MeanLatency() < 1 {
		t.Errorf("mean latency = %f, want ≥ 1", res.MeanLatency())
	}
}

func TestRunLatencyMatchesRunThroughput(t *testing.T) {
	// The latency engine must deliver exactly what the plain engine does.
	p, srcID, targets := topology.PaperFig2()
	pr, err := scatter.NewProblem(p, srcID, targets)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*scatter.Solution)
	m := FlowModel(sol.Streams())
	plain, err := Run(m, 200)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := RunLatency(m, 200)
	if err != nil {
		t.Fatal(err)
	}
	for e, want := range plain.Delivered {
		if got := lat.Delivered[e]; got == nil || got.Cmp(want) != 0 {
			t.Errorf("sink %v: latency engine delivered %v, plain %v", e, got, want)
		}
	}
}

func TestRunLatencyReduceOldestIngredientWins(t *testing.T) {
	// Chain reduce: the final result's latency reflects the farthest
	// participant (n3's value crosses three relayed hops).
	p := topology.Chain(4, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		order = append(order, p.MustLookup(name))
	}
	pr, err := reduce.NewProblem(p, order, order[0])
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p, composite.Member{Weight: rat.One(), Problem: pr}).Part.(*reduce.Solution)
	app := sol.Integerize()
	res, err := RunLatency(ReduceModel(app), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[Endpoint{order[0], TypeID("v[0,3]")}].Sign() <= 0 {
		t.Fatal("nothing delivered")
	}
	// At least two periods of pipeline depth: n3's value must traverse
	// n2 and n1 (each a buffered hop) before the final merge.
	if res.MaxLatency < 2 {
		t.Errorf("max latency = %d, want ≥ 2 on a 4-chain", res.MaxLatency)
	}
}

func TestRunLatencyValidation(t *testing.T) {
	p := graph.New()
	p.AddNode("a", rat.One())
	m := &Model{Platform: p, Period: big.NewInt(1)}
	if _, err := RunLatency(m, 0); err == nil {
		t.Error("zero periods accepted")
	}
	res, err := RunLatency(m, 3)
	if err != nil {
		t.Fatalf("empty model: %v", err)
	}
	if res.MeanLatency() != 0 {
		t.Error("empty model should have zero mean latency")
	}
}

func TestAlignCohorts(t *testing.T) {
	streams := [][]cohort{
		{{tag: 5, count: big.NewInt(3)}},
		{{tag: 2, count: big.NewInt(1)}, {tag: 7, count: big.NewInt(2)}},
	}
	out := alignCohorts(streams, big.NewInt(3))
	// First unit pairs tag 5 with tag 2 → 2; remaining two pair 5 with 7 → 5.
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].tag != 2 || out[0].count.Int64() != 1 {
		t.Errorf("out[0] = %+v", out[0])
	}
	if out[1].tag != 5 || out[1].count.Int64() != 2 {
		t.Errorf("out[1] = %+v", out[1])
	}
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue()
	q.push(1, big.NewInt(2))
	q.push(1, big.NewInt(1)) // merges with previous cohort
	q.push(3, big.NewInt(2))
	if len(q.items) != 2 {
		t.Fatalf("cohorts = %d, want 2 (same-tag merge)", len(q.items))
	}
	got := q.pop(big.NewInt(4))
	if len(got) != 2 || got[0].tag != 1 || got[0].count.Int64() != 3 || got[1].tag != 3 || got[1].count.Int64() != 1 {
		t.Errorf("pop = %v", got)
	}
	if q.total.Int64() != 1 {
		t.Errorf("remaining = %s, want 1", q.total)
	}
}

func TestQueueUnderflowPanics(t *testing.T) {
	q := newQueue()
	q.push(0, big.NewInt(1))
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	q.pop(big.NewInt(2))
}
