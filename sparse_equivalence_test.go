// Dense-vs-sparse LP equivalence at the API level: the sparse tableau
// (the default) and the dense tableau (lp.WithTableau) must return
// bit-identical solutions — same exact throughput, same pivot counts, both
// Verify-clean — for every collective kind, on seeded topogen-style
// platforms. The per-pivot arithmetic is the only thing the representation
// is allowed to change; ablation_bench_test.go measures that.
package steadystate_test

import (
	"context"
	"fmt"
	"testing"

	steadystate "repro"
	"repro/internal/lp"
)

// equivalenceSpecs enumerates one spec per collective kind (plus a mixed
// composite) over the platform's participants.
func equivalenceSpecs(p *steadystate.Platform) map[string]steadystate.Spec {
	parts := p.Participants()
	scatter := steadystate.ScatterSpec(parts[0], parts[1], parts[2], parts[3])
	reduce := steadystate.ReduceSpec([]steadystate.NodeID{parts[0], parts[1], parts[2]}, parts[0])
	return map[string]steadystate.Spec{
		"scatter":       scatter,
		"gossip":        steadystate.GossipSpec(parts[:2], parts[2:4]),
		"reduce":        reduce,
		"gather":        steadystate.GatherSpec([]steadystate.NodeID{parts[0], parts[1], parts[2]}, parts[0]),
		"prefix":        steadystate.PrefixSpec(parts[0], parts[1], parts[2]),
		"reducescatter": steadystate.ReduceScatterSpec(parts[0], parts[1], parts[2]),
		"composite": steadystate.CompositeSpec(
			[]steadystate.Spec{scatter, reduce},
			[]steadystate.Rat{steadystate.R(1, 1), steadystate.R(2, 1)}),
	}
}

// TestSparseDenseEquivalenceAcrossKinds is the property test over seeded
// platforms: for each kind, the sparse and dense solves must agree on the
// exact throughput, the LP shape and cost counters (identical pivot
// sequence, not just identical optimum), and both must pass the
// solver-independent Verify.
func TestSparseDenseEquivalenceAcrossKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every kind twice per seed")
	}
	for _, seed := range []int64{7, 42} {
		p := steadystate.Tiers(steadystate.DefaultTiersConfig(seed))
		for name, spec := range equivalenceSpecs(p) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				sparse, err := steadystate.Solve(ctx, p, spec)
				if err != nil {
					t.Fatalf("sparse solve: %v", err)
				}
				dense, err := steadystate.Solve(lp.WithTableau(ctx, lp.TableauDense), p, spec)
				if err != nil {
					t.Fatalf("dense solve: %v", err)
				}
				if a, b := sparse.Throughput(), dense.Throughput(); a.Cmp(b) != 0 {
					t.Fatalf("throughput: sparse %s, dense %s", a.RatString(), b.RatString())
				}
				if a, b := sparse.Period(), dense.Period(); a.Cmp(b) != 0 {
					t.Fatalf("period: sparse %s, dense %s", a, b)
				}
				sr, err := sparse.Report()
				if err != nil {
					t.Fatalf("sparse report: %v", err)
				}
				dr, err := dense.Report()
				if err != nil {
					t.Fatalf("dense report: %v", err)
				}
				if sr.LPPivots != dr.LPPivots || sr.LPPhase1Pivots != dr.LPPhase1Pivots {
					t.Fatalf("pivots: sparse %d (%d phase 1), dense %d (%d phase 1)",
						sr.LPPivots, sr.LPPhase1Pivots, dr.LPPivots, dr.LPPhase1Pivots)
				}
				if sr.LPVars != dr.LPVars || sr.LPConstraints != dr.LPConstraints ||
					sr.LPNonZeros != dr.LPNonZeros || sr.LPDensity != dr.LPDensity {
					t.Fatalf("LP shape: sparse %d/%d/%d, dense %d/%d/%d",
						sr.LPVars, sr.LPConstraints, sr.LPNonZeros,
						dr.LPVars, dr.LPConstraints, dr.LPNonZeros)
				}
				if sr.LPNonZeros == 0 {
					t.Fatal("report carries no lp_nonzeros")
				}
				if sr.LPDensity <= 0 || sr.LPDensity > 0.5 {
					t.Fatalf("lp_density = %v; the steady-state LPs should be sparse", sr.LPDensity)
				}
				if err := sparse.Verify(); err != nil {
					t.Fatalf("sparse Verify: %v", err)
				}
				if err := dense.Verify(); err != nil {
					t.Fatalf("dense Verify: %v", err)
				}
			})
		}
	}
}
