package steadystate_test

// Warm-start equivalence at the API level: a Solver session with a basis
// cache must return bit-identical throughputs to cold solves — on every
// collective kind, on identical re-solves, and on perturbed platforms —
// while the Report's warm-start telemetry records what the cache did.

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"testing"

	steadystate "repro"
)

// warmKindSpecs builds one small spec per collective kind over the
// platform's participants.
func warmKindSpecs(t *testing.T, p *steadystate.Platform) map[string]steadystate.Spec {
	t.Helper()
	parts := p.Participants()
	if len(parts) < 4 {
		t.Fatalf("platform has %d participants, need 4", len(parts))
	}
	return map[string]steadystate.Spec{
		"scatter":   steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3]),
		"broadcast": steadystate.BroadcastSpec(parts[0], parts[1], parts[2]),
		"gossip":    steadystate.GossipSpec(parts[:3], parts[:3]),
		"reduce":    steadystate.ReduceSpec(parts[:4], parts[0]),
		"gather":    steadystate.GatherSpec(parts[:3], parts[0]),
		"prefix":    steadystate.PrefixSpec(parts[:3]...),
		"composite": steadystate.CompositeSpec([]steadystate.Spec{
			steadystate.ScatterSpec(parts[0], parts[1], parts[2]),
			steadystate.ReduceSpec(parts[:3], parts[0]),
		}, nil),
	}
}

// rebuildWith reassembles the platform with every edge cost scaled by
// factor (nil: unchanged) and the edges selected by keep (nil: all).
// Re-adding nodes in ID order preserves NodeIDs, so specs stay valid.
func rebuildWith(p *steadystate.Platform, factor steadystate.Rat, keep func(i int) bool) *steadystate.Platform {
	q := steadystate.NewPlatform()
	for _, n := range p.Nodes() {
		if n.Router {
			q.AddRouter(n.Name)
		} else {
			q.AddNode(n.Name, n.Speed)
		}
	}
	for i, e := range p.Edges() {
		if keep != nil && !keep(i) {
			continue
		}
		cost := e.Cost
		if factor != nil {
			cost = new(big.Rat).Mul(e.Cost, factor)
		}
		q.AddEdge(e.From, e.To, cost)
	}
	return q
}

// TestWarmSolverMatchesColdAllKinds re-solves every kind through a
// basis-cached session: the second, warm-started solve must return the
// identical throughput with zero simplex pivots (its predecessor's basis
// is already optimal), and the report must say so.
func TestWarmSolverMatchesColdAllKinds(t *testing.T) {
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(7))
	for name, spec := range warmKindSpecs(t, p) {
		t.Run(name, func(t *testing.T) {
			solver := steadystate.NewSolver(p).UseBasisCache(steadystate.NewBasisCache(16))
			first, err := solver.Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("first solve: %v", err)
			}
			second, err := solver.Solve(context.Background(), spec)
			if err != nil {
				t.Fatalf("second solve: %v", err)
			}
			if first.Throughput().Cmp(second.Throughput()) != 0 {
				t.Errorf("warm TP %s != cold TP %s",
					second.Throughput().RatString(), first.Throughput().RatString())
			}
			frep, err := first.Report()
			if err != nil {
				t.Fatalf("first report: %v", err)
			}
			if frep.WarmStart || frep.WarmReject != "" {
				t.Errorf("first solve reported warm_start=%v warm_reject=%q, want cold",
					frep.WarmStart, frep.WarmReject)
			}
			rep, err := second.Report()
			if err != nil {
				t.Fatalf("second report: %v", err)
			}
			if !rep.WarmStart {
				t.Fatalf("second solve not warm-started (reject %q)", rep.WarmReject)
			}
			if rep.LPPivots != 0 || rep.LPPhase1Pivots != 0 {
				t.Errorf("warm re-solve spent %d pivots (%d phase 1), want 0 from its own optimal basis",
					rep.LPPivots, rep.LPPhase1Pivots)
			}
			if rep.Throughput != frep.Throughput || rep.Period != frep.Period {
				t.Errorf("warm report (%s, %s) != cold report (%s, %s)",
					rep.Throughput, rep.Period, frep.Throughput, frep.Period)
			}
			if frep.LPPhase1Pivots > 0 && rep.WarmPivotsSaved != frep.LPPhase1Pivots {
				t.Errorf("warm_pivots_saved %d, want the cold phase-1 cost %d",
					rep.WarmPivotsSaved, frep.LPPhase1Pivots)
			}
		})
	}
}

// TestWarmSolverPerturbedPlatform shares one basis cache between a base
// platform's session and a cost-jittered copy's: the perturbed solve
// must warm-start off the base basis (the structural fingerprint is
// unchanged by cost scaling) and still return exactly the throughput a
// cold solve of the perturbed platform returns.
func TestWarmSolverPerturbedPlatform(t *testing.T) {
	base := steadystate.Tiers(steadystate.DefaultTiersConfig(11))
	parts := base.Participants()
	spec := steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3])

	cache := steadystate.NewBasisCache(16)
	if _, err := steadystate.NewSolver(base).UseBasisCache(cache).Solve(context.Background(), spec); err != nil {
		t.Fatalf("base solve: %v", err)
	}

	perturbed := rebuildWith(base, big.NewRat(21, 20), nil)
	warm, err := steadystate.NewSolver(perturbed).UseBasisCache(cache).Solve(context.Background(), spec)
	if err != nil {
		t.Fatalf("perturbed warm solve: %v", err)
	}
	cold, err := steadystate.Solve(context.Background(), rebuildWith(base, big.NewRat(21, 20), nil), spec)
	if err != nil {
		t.Fatalf("perturbed cold solve: %v", err)
	}
	if warm.Throughput().Cmp(cold.Throughput()) != 0 {
		t.Errorf("perturbed warm TP %s != cold TP %s",
			warm.Throughput().RatString(), cold.Throughput().RatString())
	}
	rep, err := warm.Report()
	if err != nil {
		t.Fatalf("warm report: %v", err)
	}
	if !rep.WarmStart {
		t.Errorf("perturbed solve not warm-started (reject %q)", rep.WarmReject)
	}
	if rep.LPPhase1Pivots != 0 {
		t.Errorf("perturbed warm solve spent %d phase-1 pivots, want 0", rep.LPPhase1Pivots)
	}
}

// TestWarmSolverEdgeDeleteRejected pins the fingerprint guard end to
// end: deleting an edge changes the LP's structure, so the cached basis
// must be rejected with fingerprint_mismatch and the solve must fall
// back to a cold path returning the perturbed platform's own optimum.
func TestWarmSolverEdgeDeleteRejected(t *testing.T) {
	base := steadystate.Tiers(steadystate.DefaultTiersConfig(11))
	parts := base.Participants()
	spec := steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3])

	cache := steadystate.NewBasisCache(16)
	if _, err := steadystate.NewSolver(base).UseBasisCache(cache).Solve(context.Background(), spec); err != nil {
		t.Fatalf("base solve: %v", err)
	}

	// Delete the first edge whose removal keeps the platform mutually
	// connected (so the spec stays solvable).
	var cut *steadystate.Platform
	for i := range base.Edges() {
		q := rebuildWith(base, nil, func(j int) bool { return j != i })
		if q.Validate() == nil {
			cut = q
			break
		}
	}
	if cut == nil {
		t.Skip("no single edge of the seeded Tiers platform is removable")
	}

	warm, err := steadystate.NewSolver(cut).UseBasisCache(cache).Solve(context.Background(), spec)
	if err != nil {
		t.Fatalf("edge-cut warm solve: %v", err)
	}
	cold, err := steadystate.Solve(context.Background(), cut, spec)
	if err != nil {
		t.Fatalf("edge-cut cold solve: %v", err)
	}
	if warm.Throughput().Cmp(cold.Throughput()) != 0 {
		t.Errorf("edge-cut warm TP %s != cold TP %s",
			warm.Throughput().RatString(), cold.Throughput().RatString())
	}
	rep, err := warm.Report()
	if err != nil {
		t.Fatalf("warm report: %v", err)
	}
	if rep.WarmStart {
		t.Error("edge-cut solve claims warm_start despite a structural change")
	}
	if rep.WarmReject != "fingerprint_mismatch" {
		t.Errorf("warm_reject = %q, want fingerprint_mismatch", rep.WarmReject)
	}
	crep, err := cold.Report()
	if err != nil {
		t.Fatalf("cold report: %v", err)
	}
	if rep.LPPivots != crep.LPPivots || rep.LPPhase1Pivots != crep.LPPhase1Pivots {
		t.Errorf("rejected warm solve pivots (%d, %d phase 1) differ from cold (%d, %d)",
			rep.LPPivots, rep.LPPhase1Pivots, crep.LPPivots, crep.LPPhase1Pivots)
	}
}

// TestBasisCacheRejectsInvalidSpec: a session with a basis cache validates
// the spec before keying it, so a composite with a nil weight fails with
// the same unsolvable error as a plain Solve instead of panicking in
// CanonicalKey.
func TestBasisCacheRejectsInvalidSpec(t *testing.T) {
	ctx := context.Background()
	p, order, target := steadystate.PaperFig6()
	spec := steadystate.CompositeSpec(
		[]steadystate.Spec{steadystate.ReduceSpec(order, target)}, []steadystate.Rat{nil})
	_, plain := steadystate.Solve(ctx, p, spec)
	if plain == nil || !strings.Contains(plain.Error(), "composite member 0 has non-positive weight") {
		t.Fatalf("plain Solve error = %v, want the non-positive weight refusal", plain)
	}
	_, cached := steadystate.NewSolver(p).UseBasisCache(steadystate.NewBasisCache(4)).Solve(ctx, spec)
	if cached == nil || cached.Error() != plain.Error() || !errors.Is(cached, steadystate.ErrUnsolvable) {
		t.Errorf("cached session error = %v, want %q tagged ErrUnsolvable", cached, plain)
	}
}
