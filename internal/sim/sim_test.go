package sim

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/composite"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// solve solves one member on its own: a one-member composite, the single
// LP path.
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

func TestRunValidation(t *testing.T) {
	p := graph.New()
	p.AddNode("a", rat.One())
	m := &Model{Platform: p, Period: big.NewInt(1)}
	if _, err := Run(m, 0); err == nil {
		t.Error("zero periods accepted")
	}
}

func TestDirectRelayPipeline(t *testing.T) {
	// src → relay → dst, 2 messages per period. The relay needs one
	// period of buffering; afterwards delivery is 2 per period.
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
			{From: src, To: rel, Type: ty, Count: big.NewInt(2)},
			{From: rel, To: dst, Type: ty, Count: big.NewInt(2)},
		},
		Sources: map[Endpoint]bool{{src, ty}: true},
		Sinks:   map[Endpoint]bool{{dst, ty}: true},
	}
	const periods = 50
	res, err := Run(m, periods)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// First period: relay ineligible (empty buffer); thereafter full.
	// Delivered = 2·(periods − 1).
	want := big.NewInt(2 * (periods - 1))
	if res.MinDelivered().Cmp(want) != 0 {
		t.Errorf("delivered = %s, want %s", res.MinDelivered(), want)
	}
	if res.FirstFullPeriod != 1 {
		t.Errorf("FirstFullPeriod = %d, want 1", res.FirstFullPeriod)
	}
	// Buffer bound: the relay holds at most 2× its per-period demand
	// (Section 3.4's 2·buff-min-size claim).
	if mb := res.MaxBuffer[Endpoint{rel, ty}]; mb == nil || mb.Cmp(big.NewInt(4)) > 0 {
		t.Errorf("relay max buffer = %v, want ≤ 4", mb)
	}
}

// TestScatterSimPaperFig2 runs the Fig. 2 scatter protocol and checks
// Lemma 1 (delivered ≤ TP·K) and Proposition 1 (ratio → 1).
func TestScatterSimPaperFig2(t *testing.T) {
	p, src, targets := topology.PaperFig2()
	pr, err := scatter.NewProblem(p, src, targets)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.ScatterMember(pr, rat.One())).Scatter
	m := ScatterModel(sol)

	prevRatio := rat.Zero()
	for _, periods := range []int{10, 100, 1000} {
		res, err := Run(m, periods)
		if err != nil {
			t.Fatalf("Run(%d): %v", periods, err)
		}
		// Lemma 1: delivered operations ≤ TP·K where K = periods·T.
		k := new(big.Int).Mul(big.NewInt(int64(periods)), m.Period)
		bound := rat.Mul(sol.Throughput(), new(big.Rat).SetInt(k))
		delivered := new(big.Rat).SetInt(res.MinDelivered())
		if delivered.Cmp(bound) > 0 {
			t.Errorf("periods=%d: delivered %s exceeds Lemma-1 bound %s",
				periods, delivered.RatString(), bound.RatString())
		}
		ratio := rat.Div(delivered, bound)
		if ratio.Cmp(prevRatio) < 0 {
			t.Errorf("periods=%d: ratio %s decreased from %s",
				periods, ratio.RatString(), prevRatio.RatString())
		}
		prevRatio = ratio
	}
	if rat.Less(prevRatio, rat.New(99, 100)) {
		t.Errorf("ratio after 1000 periods = %s, want ≥ 0.99 (Proposition 1)", prevRatio.RatString())
	}
}

// TestReduceSimPaperFig6 runs the Fig. 6 reduce protocol: the pipelined
// throughput must converge to TP = 1.
func TestReduceSimPaperFig6(t *testing.T) {
	p, order, target := topology.PaperFig6()
	pr, err := reduce.NewProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sol := solve(t, p, composite.ReduceMember(pr, rat.One())).Reduce
	app := sol.Integerize()
	m := ReduceModel(app)

	prevRatio := rat.Zero()
	for _, periods := range []int{10, 100, 1000} {
		res, err := Run(m, periods)
		if err != nil {
			t.Fatalf("Run(%d): %v", periods, err)
		}
		k := new(big.Int).Mul(big.NewInt(int64(periods)), m.Period)
		bound := rat.Mul(sol.Throughput(), new(big.Rat).SetInt(k))
		delivered := new(big.Rat).SetInt(res.MinDelivered())
		if delivered.Cmp(bound) > 0 {
			t.Errorf("periods=%d: delivered %s exceeds bound %s (Lemma 1)",
				periods, delivered.RatString(), bound.RatString())
		}
		ratio := rat.Div(delivered, bound)
		if ratio.Cmp(prevRatio) < 0 {
			t.Errorf("periods=%d: ratio decreased", periods)
		}
		prevRatio = ratio
	}
	if rat.Less(prevRatio, rat.New(99, 100)) {
		t.Errorf("ratio after 1000 periods = %s, want ≥ 0.99 (Proposition 3)", prevRatio.RatString())
	}
}

func TestReduceSimChain(t *testing.T) {
	p := topology.Chain(4, rat.One(), rat.One())
	var order []graph.NodeID
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		order = append(order, p.MustLookup(name))
	}
	pr, _ := reduce.NewProblem(p, order, order[0])
	sol := solve(t, p, composite.ReduceMember(pr, rat.One())).Reduce
	app := sol.Integerize()
	res, err := Run(ReduceModel(app), 200)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	k := new(big.Int).Mul(big.NewInt(200), app.Period)
	bound := rat.Mul(sol.Throughput(), new(big.Rat).SetInt(k))
	delivered := new(big.Rat).SetInt(res.MinDelivered())
	ratio := rat.Div(delivered, bound)
	if rat.Less(ratio, rat.New(95, 100)) || ratio.Cmp(rat.One()) > 0 {
		t.Errorf("ratio = %s, want in [0.95, 1]", ratio.RatString())
	}
	if res.FirstFullPeriod < 0 {
		t.Error("pipeline never filled")
	}
}

func TestThroughputConvergesToTP(t *testing.T) {
	p, src, targets := topology.PaperFig2()
	pr, _ := scatter.NewProblem(p, src, targets)
	sol := solve(t, p, composite.ScatterMember(pr, rat.One())).Scatter
	m := ScatterModel(sol)
	res, err := Run(m, 2000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	simTP := res.Throughput(m.Period)
	gap := rat.Sub(sol.Throughput(), simTP)
	if gap.Sign() < 0 {
		t.Errorf("simulated throughput %s exceeds LP optimum %s", simTP.RatString(), sol.Throughput().RatString())
	}
	if gap.Cmp(rat.New(1, 100)) > 0 {
		t.Errorf("simulated TP %s too far below optimum %s", simTP.RatString(), sol.Throughput().RatString())
	}
}
