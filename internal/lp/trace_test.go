package lp

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/rat"
)

// tracedModel builds a model that exercises both phases: the Geq rows
// need artificials (phase 1 plus drive-out), the Leq rows keep phase 2
// honest.
func tracedModel() *Model {
	m := NewMaximize()
	x, y, z := m.Var("x"), m.Var("y"), m.Var("z")
	m.SetObjective(x, rat.Int(3))
	m.SetObjective(y, rat.Int(2))
	m.SetObjective(z, rat.Int(1))
	m.AddConstraint("cap", NewExpr().Plus1(x).Plus1(y).Plus1(z), Leq, rat.Int(10))
	m.AddConstraint("floor", NewExpr().Plus1(x).Plus1(y), Geq, rat.Int(3))
	m.AddConstraint("tie", NewExpr().Plus1(y).Plus(rat.Int(2), z), Eq, rat.Int(4))
	return m
}

// solveTraced solves the model with a tracer installed and returns the
// solution plus the finished trace.
func solveTraced(t *testing.T, m *Model, kind tableauKind) (*Solution, *obs.Trace) {
	t.Helper()
	tracer := obs.NewTracer("solve")
	ctx := obs.WithTracer(kind.ctx(), tracer)
	sol, err := m.SolveCtx(ctx)
	if err != nil {
		t.Fatalf("traced solve: %v", err)
	}
	return sol, tracer.Finish()
}

// findSpan returns the unique span with the given name, or nil.
func findSpan(root *obs.Span, name string) *obs.Span {
	var found *obs.Span
	root.Walk(func(s *obs.Span) {
		if s.Name == name {
			found = s
		}
	})
	return found
}

// TestTracedPhaseSpansReconcile pins the reconciliation invariant the CI
// bench-smoke job asserts end to end: the lp.phase1 span's "pivots"
// attribute equals Solution.Phase1Iterations (artificial drive-out
// included), the two phase spans sum to Solution.Iterations, and the
// per-rule splits account for every pivot the iterate loop observed.
func TestTracedPhaseSpansReconcile(t *testing.T) {
	for _, kind := range bothKinds {
		t.Run(string(kind), func(t *testing.T) {
			sol, trace := solveTraced(t, tracedModel(), kind)

			rows := findSpan(trace.Root, "lp.rows")
			if rows == nil {
				t.Fatal("no lp.rows span")
			}
			if rows.Attrs["artificials"].(int) == 0 {
				t.Fatal("model must need artificials to exercise phase 1")
			}
			if rows.Attrs["nonzeros"].(int) <= 0 {
				t.Fatalf("lp.rows nonzeros = %v", rows.Attrs["nonzeros"])
			}

			p1 := findSpan(trace.Root, "lp.phase1")
			p2 := findSpan(trace.Root, "lp.phase2")
			if p1 == nil || p2 == nil {
				t.Fatal("missing phase spans")
			}
			p1Pivots := p1.Attrs["pivots"].(int)
			p2Pivots := p2.Attrs["pivots"].(int)
			if p1Pivots != sol.Phase1Iterations {
				t.Errorf("phase1 span pivots %d != Phase1Iterations %d", p1Pivots, sol.Phase1Iterations)
			}
			if p1Pivots+p2Pivots != sol.Iterations {
				t.Errorf("phase pivots %d+%d != Iterations %d", p1Pivots, p2Pivots, sol.Iterations)
			}
			// The rule split covers exactly the pivots the iterate loop saw
			// (drive-out pivots happen outside the loop and outside the split).
			for _, s := range []*obs.Span{p1, p2} {
				loop := s.Attrs["pivots"].(int) - s.Attrs["driveout_pivots"].(int)
				if got := s.Attrs["dantzig_pivots"].(int) + s.Attrs["bland_pivots"].(int); got != loop {
					t.Errorf("%s rule split %d != loop pivots %d", s.Name, got, loop)
				}
				if s.Attrs["driveout_pivots"].(int) < 0 {
					t.Errorf("%s negative drive-out", s.Name)
				}
				if len(s.Attrs["trajectory"].([]obs.TableauSample)) == 0 {
					t.Errorf("%s has no trajectory samples", s.Name)
				}
				if len(s.Attrs["objective_waypoints"].([]obs.Waypoint)) == 0 {
					t.Errorf("%s has no objective waypoints", s.Name)
				}
			}
			if p2.Attrs["driveout_pivots"].(int) != 0 {
				t.Errorf("phase 2 cannot have drive-out pivots: %v", p2.Attrs["driveout_pivots"])
			}
			// The phase-2 closing objective is the optimum (the model
			// maximizes, so the tableau objective is the solution objective).
			if got := p2.Attrs["objective"].(string); got != sol.Objective.RatString() {
				t.Errorf("phase 2 objective attr %s != optimum %s", got, sol.Objective.RatString())
			}
		})
	}
}

// TestTracedDenseSparseIdenticalTrace pins that the dense and sparse
// tableaus execute the same pivot sequence through identical tableau
// states: their timing-stripped traces — pivot counts, rule splits,
// nonzero trajectories, objective waypoints — serialize byte-identically.
func TestTracedDenseSparseIdenticalTrace(t *testing.T) {
	_, sparse := solveTraced(t, tracedModel(), sparseKind)
	_, dense := solveTraced(t, tracedModel(), denseKind)
	a, err := json.Marshal(sparse.WithoutTiming())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(dense.WithoutTiming())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("dense and sparse traces differ:\nsparse: %s\ndense:  %s", a, b)
	}
}

// TestNoTracerPivotLoopAllocationFree pins the off switch: with no
// tracer in the context, span creation, recorder construction and every
// nil-receiver observation allocate nothing — the untraced pivot loop
// pays one pointer comparison per pivot (see iterate).
func TestNoTracerPivotLoopAllocationFree(t *testing.T) {
	ctx := context.Background()
	if _, span := obs.StartSpan(ctx, "lp.phase2"); span != nil {
		t.Fatal("StartSpan without a tracer must return a nil span")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, span := obs.StartSpan(ctx, "lp.phase2")
		rec := newPivotRecorder(span, 64)
		span.SetAttr("pivots", 0)
		rec.finish(span, nil, 0)
		span.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("untraced instrumentation path allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSolveUntraced and BenchmarkSolveTraced bound the tracing
// overhead on a pivot-heavy solve (Klee–Minty visits exponentially many
// vertices, so per-pivot cost dominates).
func BenchmarkSolveUntraced(b *testing.B) {
	m, _ := kleeMinty(8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveTraced(b *testing.B) {
	m, _ := kleeMinty(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer := obs.NewTracer("solve")
		ctx := obs.WithTracer(context.Background(), tracer)
		if _, err := m.SolveCtx(ctx); err != nil {
			b.Fatal(err)
		}
		tracer.Finish()
	}
}
