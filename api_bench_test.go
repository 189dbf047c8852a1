// Benchmarks of a repeated-sweep workload: every solve on a fresh
// platform against every solve on one platform, whose reachability memo
// the first solves fill. The memo's share of a solve is small, so the two
// are expected to be close.
//
// Compare with:
//
//	go test -bench 'SweepCold|SweepOnePlatform' -run xxx .
package steadystate_test

import (
	"context"
	"testing"

	steadystate "repro"
)

// sweepSpecs is the repeated-sweep workload: every participant scatters
// to its three successors, the pattern of the topology scaling runs.
func sweepSpecs(p *steadystate.Platform) []steadystate.Spec {
	parts := p.Participants()
	specs := make([]steadystate.Spec, 0, len(parts))
	for i := range parts {
		targets := []steadystate.NodeID{
			parts[(i+1)%len(parts)],
			parts[(i+2)%len(parts)],
			parts[(i+3)%len(parts)],
		}
		specs = append(specs, steadystate.ScatterSpec(parts[i], targets...))
	}
	return specs
}

// BenchmarkScatterSweepCold rebuilds the platform for every solve: no
// state is shared between solves.
func BenchmarkScatterSweepCold(b *testing.B) {
	cfg := steadystate.DefaultTiersConfig(11)
	specs := sweepSpecs(steadystate.Tiers(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			p := steadystate.Tiers(cfg)
			if _, err := steadystate.Solve(context.Background(), p, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScatterSweepOnePlatform runs the identical sweep on one
// platform.
func BenchmarkScatterSweepOnePlatform(b *testing.B) {
	cfg := steadystate.DefaultTiersConfig(11)
	p := steadystate.Tiers(cfg)
	specs := sweepSpecs(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := steadystate.Solve(context.Background(), p, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
