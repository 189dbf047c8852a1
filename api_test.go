// Tests for the unified Collective API: the paper platforms' exact values,
// equivalence with problem-level solves, the capability set of every kind,
// error paths, context cancellation, and the Spec/Scenario/Report
// serialization formats.
package steadystate_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"

	steadystate "repro"
	"repro/internal/composite"
	"repro/internal/core"
)

// TestErrUnsolvableTagging: problem-level failures — invalid specs, bad
// option values, impossible instances — are tagged ErrUnsolvable for
// errors.Is without changing their messages, so callers (the serving
// layer) can separate client faults from solver faults.
func TestErrUnsolvableTagging(t *testing.T) {
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1)) // no link a→b: unreachable

	_, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(a, b))
	if !errors.Is(err, steadystate.ErrUnsolvable) {
		t.Fatalf("unreachable target: err %v is not tagged ErrUnsolvable", err)
	}
	if want := "scatter: target b unreachable from source a"; err.Error() != want {
		t.Fatalf("tagging changed the message: got %q want %q", err.Error(), want)
	}

	_, err = steadystate.Solve(context.Background(), p, steadystate.Spec{Kind: "raffle"})
	if !errors.Is(err, steadystate.ErrUnsolvable) {
		t.Fatalf("unknown kind: err %v is not tagged ErrUnsolvable", err)
	}

	p.AddLink(a, b, steadystate.R(1, 2))
	if _, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(a, b)); err != nil {
		t.Fatalf("solvable scenario errored: %v", err)
	}

	// Non-positive sizes and periods are rejected before any LP is built,
	// not left to surface as an unbounded LP or a failing Report.
	p6, order, target := steadystate.PaperFig6()
	red := steadystate.ReduceSpec(order, target)
	for _, c := range []struct {
		name string
		spec steadystate.Spec
		opt  steadystate.SolveOption
	}{
		{"zero fixed period", red, steadystate.WithFixedPeriod(big.NewInt(0))},
		{"negative fixed period", red, steadystate.WithFixedPeriod(big.NewInt(-4))},
		{"nil fixed period", red, steadystate.WithFixedPeriod(nil)},
		{"zero message size", red, steadystate.WithMessageSize(steadystate.R(0, 1))},
		{"negative message size", red, steadystate.WithMessageSize(steadystate.R(-1, 1))},
		{"zero prefix message size", steadystate.PrefixSpec(order...), steadystate.WithMessageSize(steadystate.R(0, 1))},
		{"zero composite message size", steadystate.CompositeSpec([]steadystate.Spec{red}, nil),
			steadystate.WithMessageSize(steadystate.R(0, 1))},
	} {
		_, err := steadystate.Solve(context.Background(), p6, c.spec, c.opt)
		if !errors.Is(err, steadystate.ErrUnsolvable) || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: err %v, want an ErrUnsolvable positivity error", c.name, err)
		}
	}
}

func ratEq(t *testing.T, got steadystate.Rat, want string, what string) {
	t.Helper()
	if got.RatString() != want {
		t.Errorf("%s = %s, want %s", what, got.RatString(), want)
	}
}

// mustSolve solves spec on p through the unified entry point, failing the
// test or benchmark on error.
func mustSolve(tb testing.TB, p *steadystate.Platform, spec steadystate.Spec, opts ...steadystate.SolveOption) steadystate.Solution {
	tb.Helper()
	sol, err := steadystate.Solve(context.Background(), p, spec, opts...)
	if err != nil {
		tb.Fatalf("Solve %s: %v", spec.Kind, err)
	}
	return sol
}

// solveReduceProblem solves a hand-built reduce or gather problem — one
// customized beyond what the solve options express — as a one-member
// composite, the single LP path, and returns the member's solution and
// the LP counters.
func solveReduceProblem(tb testing.TB, pr *steadystate.ReduceProblem) (*steadystate.ReduceSolution, core.FlowStats) {
	tb.Helper()
	cp, err := composite.NewProblem(pr.Platform, []composite.Member{{Weight: steadystate.R(1, 1), Problem: pr}})
	if err != nil {
		tb.Fatalf("composite.NewProblem: %v", err)
	}
	sol, err := cp.SolveCtx(context.Background())
	if err != nil {
		tb.Fatalf("reduce solve: %v", err)
	}
	return sol.Members[0].Part.(*steadystate.ReduceSolution), sol.Stats
}

// TestSolutionCapabilities pins, for every kind and for every member kind
// of a composite, the Kind, the dynamic type Unwrap returns, and which
// optional capabilities the solution implements — absent ones included,
// since callers branch on these type assertions (a scatter that turned
// Certified would send cmd/sscollect down the reduce path).
func TestSolutionCapabilities(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	base := []steadystate.Spec{
		steadystate.ScatterSpec(order[0], order[1], order[2]),
		steadystate.BroadcastSpec(order[0], order[1], order[2]),
		steadystate.GossipSpec(order, order),
		steadystate.ReduceSpec(order, target),
		steadystate.GatherSpec(order, target),
		steadystate.PrefixSpec(order...),
	}
	type caps struct {
		unwrap     any
		certified  bool
		concurrent bool
	}
	want := map[steadystate.Kind]caps{
		steadystate.KindScatter:       {(*steadystate.ScatterSolution)(nil), false, false},
		steadystate.KindBroadcast:     {(*steadystate.BroadcastSolution)(nil), false, false},
		steadystate.KindGossip:        {(*steadystate.GossipSolution)(nil), false, false},
		steadystate.KindReduce:        {(*steadystate.ReduceSolution)(nil), true, false},
		steadystate.KindGather:        {(*steadystate.ReduceSolution)(nil), true, false},
		steadystate.KindPrefix:        {(*steadystate.PrefixSolution)(nil), false, false},
		steadystate.KindReduceScatter: {(*steadystate.CompositeSolution)(nil), false, true},
		steadystate.KindAllreduce:     {(*steadystate.CompositeSolution)(nil), false, true},
		steadystate.KindComposite:     {(*steadystate.CompositeSolution)(nil), false, true},
	}
	check := func(label string, sol steadystate.Solution, kind steadystate.Kind) {
		t.Helper()
		w, ok := want[kind]
		if !ok {
			t.Fatalf("%s: no expectation for kind %q", label, kind)
		}
		if sol.Kind() != kind {
			t.Errorf("%s: Kind() = %q, want %q", label, sol.Kind(), kind)
		}
		if got, exp := reflect.TypeOf(sol.Unwrap()), reflect.TypeOf(w.unwrap); got != exp {
			t.Errorf("%s: Unwrap() is %v, want %v", label, got, exp)
		}
		if _, ok := sol.(steadystate.Certified); ok != w.certified {
			t.Errorf("%s: implements Certified = %v, want %v", label, ok, w.certified)
		}
		if _, ok := sol.(steadystate.Concurrent); ok != w.concurrent {
			t.Errorf("%s: implements Concurrent = %v, want %v", label, ok, w.concurrent)
		}
	}

	specs := append(append([]steadystate.Spec(nil), base...),
		steadystate.ReduceScatterSpec(order...),
		steadystate.AllreduceSpec(order...),
		steadystate.CompositeSpec(base, nil))
	if len(specs) != len(want) {
		t.Fatalf("%d specs for %d kinds", len(specs), len(want))
	}
	for _, spec := range specs {
		sol := mustSolve(t, p, spec)
		check(string(spec.Kind), sol, spec.Kind)
		if spec.Kind != steadystate.KindComposite {
			continue
		}
		members := sol.(steadystate.Concurrent).Members()
		if len(members) != len(base) {
			t.Fatalf("composite has %d members, want %d", len(members), len(base))
		}
		for i, m := range members {
			check(fmt.Sprintf("composite member %d", i), m, base[i].Kind)
		}
	}
}

// TestSolveEquivalenceFig2Scatter: the unified entry point must reproduce
// the paper's exact Figure 2 scatter throughput.
func TestSolveEquivalenceFig2Scatter(t *testing.T) {
	p, src, targets := steadystate.PaperFig2()
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(src, targets...))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ratEq(t, sol.Throughput(), "1/2", "Solve fig2 TP")
	if sol.Kind() != steadystate.KindScatter {
		t.Errorf("Kind = %q", sol.Kind())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if _, ok := sol.Unwrap().(*steadystate.ScatterSolution); !ok {
		t.Errorf("Unwrap returned %T", sol.Unwrap())
	}
}

// TestSolveEquivalenceFig6ReduceAndPrefix checks the reduce and prefix
// kinds on the Figure 6 triangle.
func TestSolveEquivalenceFig6ReduceAndPrefix(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	rsol, err := steadystate.Solve(context.Background(), p, steadystate.ReduceSpec(order, target))
	if err != nil {
		t.Fatalf("Solve reduce: %v", err)
	}
	ratEq(t, rsol.Throughput(), "1", "Solve fig6 reduce TP")

	psol, err := steadystate.Solve(context.Background(), p, steadystate.PrefixSpec(order...))
	if err != nil {
		t.Fatalf("Solve prefix: %v", err)
	}
	if psol.Throughput().Sign() <= 0 {
		t.Error("prefix TP must be positive")
	}
}

// TestSolveEquivalenceFig9Reduce runs the headline Tiers experiment
// through both paths: Solve + WithMessageSize versus a hand-built
// problem with its size function customized.
func TestSolveEquivalenceFig9Reduce(t *testing.T) {
	p, order, target := steadystate.PaperFig9()
	size := steadystate.PaperFig9MessageSize()

	sol, err := steadystate.Solve(context.Background(), p,
		steadystate.ReduceSpec(order, target), steadystate.WithMessageSize(size))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	pr, err := steadystate.NewReduceProblem(p, order, target)
	if err != nil {
		t.Fatalf("NewReduceProblem: %v", err)
	}
	pr.SizeOf = func(steadystate.ReduceRange) steadystate.Rat { return size }
	manual, _ := solveReduceProblem(t, pr)

	if sol.Throughput().Cmp(manual.Throughput()) != 0 {
		t.Errorf("fig9 TP mismatch: Solve %s vs hand-built %s",
			sol.Throughput().RatString(), manual.Throughput().RatString())
	}
	if sol.Period().Cmp(manual.Period()) != 0 {
		t.Errorf("fig9 period mismatch: %s vs %s", sol.Period(), manual.Period())
	}
}

// TestMessageSizeScalesDefaultTaskTime: WithMessageSize replaces the size
// function after construction, and the default task time (result size /
// speed) must follow it. On a chain of slow nodes over fast links compute
// is the bottleneck, so ten times the size is exactly a tenth of the
// throughput for every kind built on the reduce family.
func TestMessageSizeScalesDefaultTaskTime(t *testing.T) {
	p := steadystate.Chain(3, steadystate.R(1, 100), steadystate.R(1, 4))
	order := []steadystate.NodeID{p.MustLookup("n0"), p.MustLookup("n1"), p.MustLookup("n2")}
	for _, c := range []struct {
		spec      steadystate.Spec
		unit, ten string
	}{
		{steadystate.ReduceSpec(order, order[2]), "3/8", "3/80"},
		{steadystate.PrefixSpec(order...), "1/4", "1/40"},
		{steadystate.ReduceScatterSpec(order...), "1/8", "1/80"},
	} {
		unit := mustSolve(t, p, c.spec).Throughput()
		ten := mustSolve(t, p, c.spec, steadystate.WithMessageSize(steadystate.R(10, 1))).Throughput()
		ratEq(t, unit, c.unit, string(c.spec.Kind)+" TP(size 1)")
		ratEq(t, ten, c.ten, string(c.spec.Kind)+" TP(size 10)")
		if scaled := new(big.Rat).Mul(ten, big.NewRat(10, 1)); scaled.Cmp(unit) != 0 {
			t.Errorf("%s: TP(size 10)·10 = %s, want TP(size 1) = %s",
				c.spec.Kind, scaled.RatString(), unit.RatString())
		}
	}
}

// TestSolveEquivalenceGossip checks gossip on a ring.
func TestSolveEquivalenceGossip(t *testing.T) {
	p := steadystate.Ring(4, steadystate.R(1, 2), steadystate.R(1, 1))
	var nodes []steadystate.NodeID
	for _, n := range p.Nodes() {
		nodes = append(nodes, n.ID)
	}
	sol, err := steadystate.Solve(context.Background(), p, steadystate.GossipSpec(nodes, nodes))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Throughput().Sign() <= 0 {
		t.Error("gossip TP must be positive")
	}
}

// TestSolveGatherEquivalence checks the gather kind against a problem
// built by hand with the gather constructor.
func TestSolveGatherEquivalence(t *testing.T) {
	p := steadystate.Chain(3, steadystate.R(1, 2), steadystate.R(1, 1))
	order := p.Participants()
	block := steadystate.R(2, 1)

	sol, err := steadystate.Solve(context.Background(), p,
		steadystate.GatherSpec(order, order[0]), steadystate.WithBlockSize(block))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	pr, err := steadystate.NewGatherProblem(p, order, order[0], block)
	if err != nil {
		t.Fatalf("NewGatherProblem: %v", err)
	}
	manual, _ := solveReduceProblem(t, pr)
	if sol.Throughput().Cmp(manual.Throughput()) != 0 {
		t.Errorf("gather TP mismatch: %s vs %s",
			sol.Throughput().RatString(), manual.Throughput().RatString())
	}
	if sol.Kind() != steadystate.KindGather {
		t.Errorf("Kind = %q", sol.Kind())
	}
}

// TestSolutionUniformSurface exercises Schedule/SimModel/Report on
// scatter, reduce and gossip, then checks the prefix schedule verifies and
// its replay respects Lemma 1.
func TestSolutionUniformSurface(t *testing.T) {
	ctx := context.Background()
	p, src, targets := steadystate.PaperFig2()
	p6, order, target := steadystate.PaperFig6()

	solve := func(p *steadystate.Platform, spec steadystate.Spec) steadystate.Solution {
		t.Helper()
		sol, err := steadystate.Solve(ctx, p, spec)
		if err != nil {
			t.Fatalf("Solve %s: %v", spec.Kind, err)
		}
		return sol
	}

	for _, sol := range []steadystate.Solution{
		solve(p, steadystate.ScatterSpec(src, targets...)),
		solve(p6, steadystate.ReduceSpec(order, target)),
		solve(p6, steadystate.GossipSpec(order, order)),
	} {
		sched, err := sol.Schedule()
		if err != nil {
			t.Fatalf("%s Schedule: %v", sol.Kind(), err)
		}
		if err := sched.Verify(); err != nil {
			t.Errorf("%s schedule invalid: %v", sol.Kind(), err)
		}
		m, err := sol.SimModel()
		if err != nil {
			t.Fatalf("%s SimModel: %v", sol.Kind(), err)
		}
		res, err := steadystate.Simulate(m, 50)
		if err != nil {
			t.Fatalf("%s Simulate: %v", sol.Kind(), err)
		}
		if res.MinDelivered().Sign() <= 0 {
			t.Errorf("%s simulation delivered nothing", sol.Kind())
		}
		rep, err := sol.Report()
		if err != nil {
			t.Fatalf("%s Report: %v", sol.Kind(), err)
		}
		if rep.Throughput != sol.Throughput().RatString() || rep.Kind != sol.Kind() {
			t.Errorf("%s report out of sync: %+v", sol.Kind(), rep)
		}
	}

	psol := solve(p6, steadystate.PrefixSpec(order...))
	psched, err := psol.Schedule()
	if err != nil {
		t.Fatalf("prefix Schedule: %v", err)
	}
	if err := psched.Verify(); err != nil {
		t.Errorf("prefix schedule invalid: %v", err)
	}
	pm, err := psol.SimModel()
	if err != nil {
		t.Fatalf("prefix SimModel: %v", err)
	}
	pres, err := steadystate.Simulate(pm, 50)
	if err != nil {
		t.Fatalf("prefix Simulate: %v", err)
	}
	if pres.MinDelivered().Sign() <= 0 {
		t.Error("prefix simulation delivered nothing")
	}
	// Lemma 1: no rank may deliver more than TP·K prefixes.
	k := new(big.Int).Mul(big.NewInt(50), pm.Period)
	bound := new(big.Rat).Mul(psol.Throughput(), new(big.Rat).SetInt(k))
	if new(big.Rat).SetInt(pres.MinDelivered()).Cmp(bound) > 0 {
		t.Errorf("prefix delivered %s exceeds bound %s", pres.MinDelivered(), bound.RatString())
	}
	if _, err := psol.Report(); err != nil {
		t.Errorf("prefix Report: %v", err)
	}
}

// TestSolveErrorPaths covers the validation errors of the unified entry
// point.
func TestSolveErrorPaths(t *testing.T) {
	ctx := context.Background()
	p, src, targets := steadystate.PaperFig2()
	p6, order, target := steadystate.PaperFig6()

	cases := []struct {
		name string
		p    *steadystate.Platform
		spec steadystate.Spec
		opts []steadystate.SolveOption
	}{
		{"unknown source id", p, steadystate.ScatterSpec(steadystate.NodeID(99), targets...), nil},
		{"unknown target id", p, steadystate.ScatterSpec(src, steadystate.NodeID(-1)), nil},
		{"empty targets", p, steadystate.ScatterSpec(src), nil},
		{"duplicate targets", p, steadystate.ScatterSpec(src, targets[0], targets[0]), nil},
		{"unknown order id", p6, steadystate.ReduceSpec([]steadystate.NodeID{order[0], 99}, target), nil},
		{"target not in order", p6, steadystate.ReduceSpec(order[:2], order[2]), nil},
		{"unknown kind", p6, steadystate.Spec{Kind: "allteleport", Order: order}, nil},
		{"empty kind", p6, steadystate.Spec{}, nil},
		{"gossip no sources", p6, steadystate.GossipSpec(nil, order), nil},
		{"prefix single participant", p6, steadystate.PrefixSpec(order[0]), nil},
		{"scatter rejects message size", p, steadystate.ScatterSpec(src, targets...),
			[]steadystate.SolveOption{steadystate.WithMessageSize(steadystate.R(2, 1))}},
		{"reduce rejects block size", p6, steadystate.ReduceSpec(order, target),
			[]steadystate.SolveOption{steadystate.WithBlockSize(steadystate.R(2, 1))}},
		{"gather rejects message size", p6, steadystate.GatherSpec(order, target),
			[]steadystate.SolveOption{steadystate.WithMessageSize(steadystate.R(2, 1))}},
		{"prefix rejects fixed period", p6, steadystate.PrefixSpec(order...),
			[]steadystate.SolveOption{steadystate.WithFixedPeriod(big.NewInt(10))}},
	}
	for _, tc := range cases {
		if _, err := steadystate.Solve(ctx, tc.p, tc.spec, tc.opts...); err == nil {
			t.Errorf("%s: Solve succeeded, want error", tc.name)
		}
	}
}

// TestSolveCanceledContext: a canceled context must abort the solve with
// an error wrapping context.Canceled, and a deadline must likewise
// propagate.
func TestSolveCanceledContext(t *testing.T) {
	p, order, target := steadystate.PaperFig9()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target),
		steadystate.WithMessageSize(steadystate.PaperFig9MessageSize()))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Solve error = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	_, err = steadystate.Solve(dctx, p, steadystate.ReduceSpec(order, target))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Solve error = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolverSessionConcurrent solves several specs concurrently through
// one session; run under -race this pins the concurrency-safety claim.
func TestSolverSessionConcurrent(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	solver := steadystate.NewSolver(p)
	specs := []steadystate.Spec{
		steadystate.ReduceSpec(order, target),
		steadystate.PrefixSpec(order...),
		steadystate.GossipSpec(order, order),
		steadystate.ScatterSpec(order[0], order[1], order[2]),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := solver.Solve(context.Background(), spec)
			if err == nil && sol.Throughput().Sign() <= 0 {
				err = errors.New("non-positive throughput")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("spec %s: %v", specs[i].Kind, err)
		}
	}
}

// TestSolverSessionMatchesColdSolves: a session's results must be
// bit-identical to one-shot solves.
func TestSolverSessionMatchesColdSolves(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(23))
	parts := p.Participants()
	solver := steadystate.NewSolver(p)
	for i := 0; i < 3; i++ {
		spec := steadystate.ScatterSpec(parts[i], parts[i+1], parts[i+2])
		warm, err := solver.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("session solve %d: %v", i, err)
		}
		cold, err := steadystate.Solve(context.Background(),
			steadystate.Tiers(steadystate.DefaultTiersConfig(23)), spec)
		if err != nil {
			t.Fatalf("cold solve %d: %v", i, err)
		}
		if warm.Throughput().Cmp(cold.Throughput()) != 0 {
			t.Errorf("solve %d: session TP %s != cold TP %s",
				i, warm.Throughput().RatString(), cold.Throughput().RatString())
		}
	}
}

// TestSpecJSONRoundTrip serializes every kind of spec and checks the
// round trip, including node id 0 in scalar roles.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []steadystate.Spec{
		steadystate.ScatterSpec(0, 1, 2),
		steadystate.GossipSpec([]steadystate.NodeID{0, 1}, []steadystate.NodeID{2, 3}),
		steadystate.ReduceSpec([]steadystate.NodeID{0, 1, 2}, 0),
		steadystate.GatherSpec([]steadystate.NodeID{2, 1, 0}, 2),
		steadystate.PrefixSpec(0, 1, 2),
	}
	for _, spec := range specs {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Kind, err)
		}
		var back steadystate.Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", spec.Kind, err)
		}
		if back.Kind != spec.Kind || back.Source != spec.Source || back.Target != spec.Target ||
			len(back.Sources) != len(spec.Sources) || len(back.Targets) != len(spec.Targets) ||
			len(back.Order) != len(spec.Order) {
			t.Errorf("%s: round trip changed spec: %+v vs %+v", spec.Kind, back, spec)
		}
	}
	if _, err := json.Marshal(steadystate.Spec{Kind: "bogus"}); err == nil {
		t.Error("marshal of unknown kind should fail")
	}
}

// TestScenarioRoundTrip: a platform+spec scenario file must survive JSON
// and still solve to the identical throughput.
func TestScenarioRoundTrip(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	sc := &steadystate.Scenario{Platform: p, Spec: steadystate.ReduceSpec(order, target)}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back steadystate.Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	sol, err := back.Solve(context.Background())
	if err != nil {
		t.Fatalf("solve round-tripped scenario: %v", err)
	}
	ratEq(t, sol.Throughput(), "1", "round-tripped fig6 TP")

	if err := json.Unmarshal([]byte(`{"spec":{"kind":"scatter"}}`), &back); err == nil {
		t.Error("scenario without platform should fail to parse")
	}
}

// TestFixedPeriodOption: WithFixedPeriod shapes the schedule and the
// report.
func TestFixedPeriodOption(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	sol, err := steadystate.Solve(context.Background(), p,
		steadystate.ReduceSpec(order, target), steadystate.WithFixedPeriod(big.NewInt(30)))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("fixed-period schedule invalid: %v", err)
	}
	rep, err := sol.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep.FixedPeriod != "30" || rep.FixedThroughput == "" || rep.FixedLoss == "" {
		t.Errorf("report missing fixed-period fields: %+v", rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	var back steadystate.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, *rep) {
		t.Errorf("report round trip changed: %+v vs %+v", back, *rep)
	}
}

// TestCertificateMatchesLegacyTreeExtraction: the Certified surface must
// agree with the legacy Integerize/ExtractTrees path.
func TestCertificateMatchesLegacyTreeExtraction(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ReduceSpec(order, target))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	app, trees, err := sol.(steadystate.Certified).Certificate()
	if err != nil {
		t.Fatalf("Certificate: %v", err)
	}
	if err := steadystate.VerifyTreeDecomposition(app, trees); err != nil {
		t.Errorf("certificate decomposition invalid: %v", err)
	}
}
