// Trace tests: WithTrace must produce a deterministic span tree per
// solve — byte-identical modulo timing, reconciling exactly with the
// Report's LP counters — and concurrent traced solves on one platform
// must produce disjoint traces (run under -race in CI).
package steadystate_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	steadystate "repro"
)

// traceReport solves the spec on p under ctx with tracing on and returns
// the report.
func traceReport(t *testing.T, ctx context.Context, p *steadystate.Platform, spec steadystate.Spec) *steadystate.Report {
	t.Helper()
	sol, err := steadystate.Solve(ctx, p, spec, steadystate.WithTrace())
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}
	rep, err := sol.Report()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Trace == nil {
		t.Fatal("WithTrace must attach Report.Trace")
	}
	return rep
}

// spanInt reads an integer span attribute (in-memory attributes are ints;
// only a JSON round trip turns them into float64).
func spanInt(t *testing.T, s *steadystate.Span, key string) int {
	t.Helper()
	v, ok := s.Attrs[key].(int)
	if !ok {
		t.Fatalf("span %s attr %q = %v (%T), want int", s.Name, key, s.Attrs[key], s.Attrs[key])
	}
	return v
}

// findSpan returns the unique span with the given name, or nil.
func findSpan(root *steadystate.Span, name string) *steadystate.Span {
	var found *steadystate.Span
	root.Walk(func(s *steadystate.Span) {
		if s.Name == name {
			found = s
		}
	})
	return found
}

// checkTraceReconciles asserts the invariant the CI bench-smoke job pins
// end to end: the phase spans' pivot attributes equal the report's LP
// counters exactly.
func checkTraceReconciles(t *testing.T, rep *steadystate.Report) {
	t.Helper()
	root := rep.Trace.Root
	if root.Name != "solve" {
		t.Fatalf("root span %q, want solve", root.Name)
	}
	if kind, _ := root.Attrs["kind"].(string); kind != string(rep.Kind) {
		t.Errorf("root kind attr %q != report kind %q", kind, rep.Kind)
	}
	p1, p2 := findSpan(root, "lp.phase1"), findSpan(root, "lp.phase2")
	if p2 == nil {
		t.Fatal("no lp.phase2 span")
	}
	p1Pivots := 0
	if p1 != nil {
		p1Pivots = spanInt(t, p1, "pivots")
	}
	if p1Pivots != rep.LPPhase1Pivots {
		t.Errorf("phase1 span pivots %d != lp_phase1_pivots %d", p1Pivots, rep.LPPhase1Pivots)
	}
	if total := p1Pivots + spanInt(t, p2, "pivots"); total != rep.LPPivots {
		t.Errorf("phase span pivots %d != lp_pivots %d", total, rep.LPPivots)
	}
}

// TestTraceGoldenStructure pins the trace contract on the tiers42
// fixture: every span carries a timing block, WithoutTiming strips them
// all, repeated solves serialize byte-identically modulo timing, and the
// pivot attributes reconcile with the report counters — for a scatter
// (pure flow LP) and a reduce (tree extraction included). That the dense
// tableau replays the same trace is pinned in internal/lp
// (TestTraceIdentityDenseVsSparse).
func TestTraceGoldenStructure(t *testing.T) {
	p := loadFixture(t, "tiers42.json")
	parts := p.Participants()
	ctx := context.Background()
	specs := map[string]steadystate.Spec{
		"scatter": steadystate.ScatterSpec(parts[0], parts[1:3]...),
		"reduce":  steadystate.ReduceSpec(parts[:4], parts[0]),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			rep := traceReport(t, ctx, p, spec)
			checkTraceReconciles(t, rep)

			// Wall clock lives only in timing blocks: present on every span,
			// gone after the golden projection.
			rep.Trace.Root.Walk(func(s *steadystate.Span) {
				if s.Timing == nil {
					t.Errorf("span %s has no timing block", s.Name)
				}
			})
			bare := rep.Trace.WithoutTiming()
			bare.Root.Walk(func(s *steadystate.Span) {
				if s.Timing != nil {
					t.Errorf("WithoutTiming left timing on span %s", s.Name)
				}
			})

			// The structural projection is a pure function of the scenario:
			// byte-identical across repeat solves.
			golden, err := json.Marshal(bare)
			if err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(traceReport(t, ctx, p, spec).Trace.WithoutTiming())
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(golden) {
				t.Errorf("repeat solve changed the trace:\n%s\n%s", golden, again)
			}
		})
	}
}

// TestUntracedSolveHasNoTrace pins the default: no WithTrace, no trace.
func TestUntracedSolveHasNoTrace(t *testing.T) {
	p := loadFixture(t, "tiers42.json")
	parts := p.Participants()
	sol, err := steadystate.Solve(context.Background(), p, steadystate.ScatterSpec(parts[0], parts[1:3]...))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sol.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Fatal("untraced solve must not attach a trace")
	}
}

// TestConcurrentTracesDisjoint proves concurrent traced solves on one
// platform produce disjoint traces: each goroutine's trace is its
// own tree, reconciling with its own report — no span ever leaks into
// another solve's trace. The -race runner in CI makes the memory claim.
func TestConcurrentTracesDisjoint(t *testing.T) {
	p := loadFixture(t, "tiers42.json")
	parts := p.Participants()
	specs := []steadystate.Spec{
		steadystate.ScatterSpec(parts[0], parts[1:3]...),
		steadystate.ReduceSpec(parts[:4], parts[0]),
		steadystate.PrefixSpec(parts[:3]...),
		steadystate.BroadcastSpec(parts[1], parts[2:4]...),
	}
	const rounds = 4
	reports := make([]*steadystate.Report, len(specs)*rounds)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, err := steadystate.Solve(context.Background(), p, specs[i%len(specs)], steadystate.WithTrace())
			if err == nil {
				reports[i], err = sol.Report()
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("solve %d: %w", i, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	seen := make(map[*steadystate.Span]int)
	for i, rep := range reports {
		checkTraceReconciles(t, rep)
		rep.Trace.Root.Walk(func(s *steadystate.Span) {
			if prev, dup := seen[s]; dup {
				t.Fatalf("span %s shared between solves %d and %d", s.Name, prev, i)
			}
			seen[s] = i
		})
	}
}
