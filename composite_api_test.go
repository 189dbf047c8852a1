// Tests for concurrent collectives through the unified API: bit-exact
// degeneration of single-member composites to the plain per-kind solvers,
// reduce-scatter semantics and golden values, merged-schedule validity,
// and the composite Spec/Scenario/Report serialization.
package steadystate_test

import (
	"context"
	"encoding/json"
	"math/big"
	"reflect"
	"strings"
	"testing"

	steadystate "repro"
)

// TestCompositeSingleMemberBitExact: a composite of one member with weight
// 1 must degenerate to the plain solver bit-exactly — same throughput and
// same period — for every base kind. The composite assembles the same LP
// phase by phase, so the simplex walks the same pivots. Outside the reduce
// family, whose plain schedule serializes its certified trees instead, a
// plain schedule is the one-member composite's merged schedule: the same
// slots, without the member's "op0:" label namespace.
func TestCompositeSingleMemberBitExact(t *testing.T) {
	ctx := context.Background()
	p2, src, targets := steadystate.PaperFig2()
	p6, order, target := steadystate.PaperFig6()
	chain := steadystate.Chain(3, steadystate.R(1, 2), steadystate.R(1, 1))
	chainOrder := chain.Participants()

	cases := []struct {
		name string
		p    *steadystate.Platform
		spec steadystate.Spec
		opts []steadystate.SolveOption
	}{
		{"scatter", p2, steadystate.ScatterSpec(src, targets...), nil},
		{"broadcast", p2, steadystate.BroadcastSpec(src, targets...), nil},
		{"gossip", p6, steadystate.GossipSpec(order, order), nil},
		{"reduce", p6, steadystate.ReduceSpec(order, target), nil},
		{"gather", chain, steadystate.GatherSpec(chainOrder, chainOrder[0]),
			[]steadystate.SolveOption{steadystate.WithBlockSize(steadystate.R(2, 1))}},
		{"prefix", p6, steadystate.PrefixSpec(order...), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := steadystate.Solve(ctx, c.p, c.spec, c.opts...)
			if err != nil {
				t.Fatalf("plain Solve: %v", err)
			}
			comp, err := steadystate.Solve(ctx, c.p,
				steadystate.CompositeSpec([]steadystate.Spec{c.spec}, nil), c.opts...)
			if err != nil {
				t.Fatalf("composite Solve: %v", err)
			}
			if comp.Throughput().Cmp(plain.Throughput()) != 0 {
				t.Errorf("TP = %s, want %s", comp.Throughput().RatString(), plain.Throughput().RatString())
			}
			if comp.Period().Cmp(plain.Period()) != 0 {
				t.Errorf("period = %s, want %s", comp.Period(), plain.Period())
			}
			if err := comp.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
			members := comp.(steadystate.Concurrent).Members()
			if len(members) != 1 {
				t.Fatalf("got %d members, want 1", len(members))
			}
			if members[0].Kind() != c.spec.Kind {
				t.Errorf("member kind = %q, want %q", members[0].Kind(), c.spec.Kind)
			}
			if members[0].Throughput().Cmp(plain.Throughput()) != 0 {
				t.Errorf("member TP = %s, want %s",
					members[0].Throughput().RatString(), plain.Throughput().RatString())
			}
			if _, certified := plain.(steadystate.Certified); certified {
				return
			}
			plainSched, err := plain.Schedule()
			if err != nil {
				t.Fatalf("plain Schedule: %v", err)
			}
			compSched, err := comp.Schedule()
			if err != nil {
				t.Fatalf("composite Schedule: %v", err)
			}
			want := strings.ReplaceAll(compSched.Gantt(), steadystate.SimMemberPrefix(0), "")
			if got := plainSched.Gantt(); got != want {
				t.Errorf("plain schedule is not the one-member composite's:\n--- plain\n%s\n--- composite without op0:\n%s", got, want)
			}
		})
	}
}

// TestReduceScatterTwoParticipantsEqualsReduce: on a symmetric link-bound
// two-node platform the two member reduces use opposite link directions
// and distinct compute nodes, so the concurrent common rate equals the
// plain reduce throughput bit-exactly. (On compute-bound platforms the
// standalone optimum spreads tasks over both nodes and concurrency must
// halve the rate instead.)
func TestReduceScatterTwoParticipantsEqualsReduce(t *testing.T) {
	p := steadystate.NewPlatform()
	a := p.AddNode("a", steadystate.R(1, 1))
	b := p.AddNode("b", steadystate.R(1, 1))
	p.AddLink(a, b, steadystate.R(1, 1))

	plain, err := steadystate.Solve(context.Background(), p,
		steadystate.ReduceSpec([]steadystate.NodeID{a, b}, a))
	if err != nil {
		t.Fatalf("reduce Solve: %v", err)
	}
	rs, err := steadystate.Solve(context.Background(), p, steadystate.ReduceScatterSpec(a, b))
	if err != nil {
		t.Fatalf("reduce-scatter Solve: %v", err)
	}
	if rs.Throughput().Cmp(plain.Throughput()) != 0 {
		t.Errorf("reduce-scatter TP = %s, want plain reduce %s",
			rs.Throughput().RatString(), plain.Throughput().RatString())
	}
	if err := rs.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	sched, err := rs.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("merged schedule invalid: %v", err)
	}
}

// TestReduceScatterGoldenFig6: golden values on the paper's Figure 6
// triangle — three concurrent reduces saturate the triangle at a common
// rate of 1/4 (a single reduce alone achieves 1).
func TestReduceScatterGoldenFig6(t *testing.T) {
	p, order, _ := steadystate.PaperFig6()
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ReduceScatterSpec(order...))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ratEq(t, sol.Throughput(), "1/4", "fig6 reduce-scatter TP")
	if got := sol.Period().String(); got != "4" {
		t.Errorf("period = %s, want 4", got)
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	for i, m := range sol.(steadystate.Concurrent).Members() {
		ratEq(t, m.Throughput(), "1/4", "member TP")
		if m.Spec().Target != order[i] {
			t.Errorf("member %d targets node %d, want %d", i, m.Spec().Target, order[i])
		}
		if err := m.Verify(); err != nil {
			t.Errorf("member %d Verify: %v", i, err)
		}
	}
	sched, err := sol.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Verify(); err != nil {
		t.Errorf("merged schedule invalid: %v", err)
	}
	rep, err := sol.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep.Kind != steadystate.KindReduceScatter || len(rep.Members) != 3 {
		t.Errorf("report = %+v, want reducescatter with 3 members", rep)
	}
	for _, mr := range rep.Members {
		if mr.Throughput != "1/4" || mr.Weight != "1" {
			t.Errorf("member report = %+v, want TP 1/4 weight 1", mr)
		}
	}
}

// TestReduceScatterGoldenTiers: golden values for a reduce-scatter over
// the first three participants of the seed-42 Tiers platform.
func TestReduceScatterGoldenTiers(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	order := p.Participants()[:3]
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ReduceScatterSpec(order...))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ratEq(t, sol.Throughput(), "695/283", "tiers reduce-scatter TP")
	if got := sol.Period().String(); got != "283" {
		t.Errorf("period = %s, want 283", got)
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

// TestCompositeWeightsScaleMembers: a 2:1 weighted composite of two
// scatters delivers member rates in exactly that proportion.
func TestCompositeWeightsScaleMembers(t *testing.T) {
	p, order, _ := steadystate.PaperFig6()
	specs := []steadystate.Spec{
		steadystate.ScatterSpec(order[0], order[1]),
		steadystate.ScatterSpec(order[1], order[2]),
	}
	sol, err := steadystate.Solve(context.Background(), p,
		steadystate.CompositeSpec(specs, []steadystate.Rat{steadystate.R(2, 1), steadystate.R(1, 1)}))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	members := sol.(steadystate.Concurrent).Members()
	want := new(big.Rat).Mul(big.NewRat(2, 1), sol.Throughput())
	if members[0].Throughput().Cmp(want) != 0 {
		t.Errorf("member 0 TP = %s, want 2·TP = %s",
			members[0].Throughput().RatString(), want.RatString())
	}
	if members[1].Throughput().Cmp(sol.Throughput()) != 0 {
		t.Errorf("member 1 TP = %s, want TP = %s",
			members[1].Throughput().RatString(), sol.Throughput().RatString())
	}
	if err := sol.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestCompositeSpecJSONRoundTrip: composite and reduce-scatter specs (and
// scenarios embedding them) survive JSON round trips, with weights as
// exact rational strings.
func TestCompositeSpecJSONRoundTrip(t *testing.T) {
	p, order, target := steadystate.PaperFig6()
	spec := steadystate.CompositeSpec(
		[]steadystate.Spec{
			steadystate.ReduceSpec(order, target),
			steadystate.ScatterSpec(order[0], order[1:]...),
		},
		[]steadystate.Rat{steadystate.R(1, 3), steadystate.R(2, 1)},
	)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back steadystate.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("composite spec round trip changed:\n%+v\nvs\n%+v", back, spec)
	}

	rsSpec := steadystate.ReduceScatterSpec(order...)
	data, err = json.Marshal(rsSpec)
	if err != nil {
		t.Fatalf("marshal rs: %v", err)
	}
	var rsBack steadystate.Spec
	if err := json.Unmarshal(data, &rsBack); err != nil {
		t.Fatalf("unmarshal rs: %v", err)
	}
	if !reflect.DeepEqual(rsBack, rsSpec) {
		t.Errorf("reduce-scatter spec round trip changed: %+v vs %+v", rsBack, rsSpec)
	}

	// A scenario carrying a composite spec solves after the round trip,
	// and its serialization is compact at every nesting level.
	sc := &steadystate.Scenario{Platform: p, Spec: rsSpec}
	data, err = json.Marshal(sc)
	if err != nil {
		t.Fatalf("scenario marshal: %v", err)
	}
	direct, err := sc.MarshalJSON()
	if err != nil {
		t.Fatalf("scenario MarshalJSON: %v", err)
	}
	if string(direct) != string(data) {
		t.Errorf("scenario top-level and nested serialization disagree:\n%s\nvs\n%s", direct, data)
	}
	var scBack steadystate.Scenario
	if err := json.Unmarshal(data, &scBack); err != nil {
		t.Fatalf("scenario unmarshal: %v", err)
	}
	sol, err := scBack.Solve(context.Background())
	if err != nil {
		t.Fatalf("round-tripped scenario solve: %v", err)
	}
	ratEq(t, sol.Throughput(), "1/4", "round-tripped reduce-scatter TP")
}

// TestCompositeErrorPaths: malformed composite specs fail loudly.
func TestCompositeErrorPaths(t *testing.T) {
	ctx := context.Background()
	p, order, target := steadystate.PaperFig6()
	red := steadystate.ReduceSpec(order, target)

	if _, err := steadystate.Solve(ctx, p, steadystate.CompositeSpec(nil, nil)); err == nil {
		t.Error("empty composite should fail")
	}
	if _, err := steadystate.Solve(ctx, p, steadystate.CompositeSpec(
		[]steadystate.Spec{red}, []steadystate.Rat{steadystate.R(1, 1), steadystate.R(1, 1)})); err == nil {
		t.Error("weight/member length mismatch should fail")
	}
	if _, err := steadystate.Solve(ctx, p, steadystate.CompositeSpec(
		[]steadystate.Spec{red}, []steadystate.Rat{steadystate.R(0, 1)})); err == nil {
		t.Error("zero weight should fail")
	}
	if _, err := steadystate.Solve(ctx, p, steadystate.CompositeSpec(
		[]steadystate.Spec{red}, []steadystate.Rat{nil})); err == nil {
		t.Error("nil weight should fail")
	}
	nested := steadystate.CompositeSpec([]steadystate.Spec{red}, nil)
	if _, err := steadystate.Solve(ctx, p, steadystate.CompositeSpec(
		[]steadystate.Spec{nested}, nil)); err == nil {
		t.Error("nested composite should fail")
	}
	if _, err := steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order[0])); err == nil {
		t.Error("single-participant reduce-scatter should fail")
	}
	if _, err := steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order...),
		steadystate.WithFixedPeriod(big.NewInt(10))); err == nil {
		t.Error("WithFixedPeriod on reduce-scatter should fail")
	}
	sol, err := steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order...))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	m, err := sol.SimModel()
	if err != nil {
		t.Fatalf("reduce-scatter SimModel: %v", err)
	}
	res, err := steadystate.Simulate(m, 40)
	if err != nil {
		t.Fatalf("reduce-scatter Simulate: %v", err)
	}
	// Each of the N reduce members must deliver, and none may beat its
	// member bound weight·TP·K (Lemma 1 per member).
	for i := range order {
		delivered := res.MinDeliveredPrefix(steadystate.SimMemberPrefix(i))
		if delivered.Sign() <= 0 {
			t.Errorf("member %d delivered nothing", i)
		}
		k := new(big.Int).Mul(big.NewInt(40), m.Period)
		memberTP := sol.(steadystate.Concurrent).Members()[i].Throughput()
		bound := new(big.Rat).Mul(memberTP, new(big.Rat).SetInt(k))
		if new(big.Rat).SetInt(delivered).Cmp(bound) > 0 {
			t.Errorf("member %d delivered %s, above bound %s", i, delivered, bound.RatString())
		}
	}
}
