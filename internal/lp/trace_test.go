package lp

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
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
// tableaus execute the same pivot sequence: their timing-stripped traces
// — row shape and nonzeros, pivot counts, rule and degeneracy splits,
// phase objectives — serialize byte-identically.
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

// callLogTableau wraps a tableau and logs, in order, every call that can
// change it, with its arguments and answer. Probes that only read the
// tableau pass through unlogged.
type callLogTableau struct {
	tableau
	log *[]string
}

// WithCallLog returns a context under which every Model.SolveCtx runs
// on the sparse tableau wrapped in a callLogTableau appending to log.
// Like WithDenseTableau, only this package's test binary can see it.
func WithCallLog(ctx context.Context, log *[]string) context.Context {
	return context.WithValue(ctx, tableauCtxKey{}, func(nCols int) tableau {
		*log = append(*log, fmt.Sprintf("newTableau(%d)", nCols))
		return callLogTableau{newSparseTableau(nCols), log}
	})
}

func (c callLogTableau) add(format string, args ...any) {
	*c.log = append(*c.log, fmt.Sprintf(format, args...))
}

func (c callLogTableau) addRow(entries []colVal, den scalar, basic int) {
	c.tableau.addRow(entries, den, basic)
	c.add("addRow(%d entries, basic %d)", len(entries), basic)
}

func (c callLogTableau) entering(bland bool) int {
	col := c.tableau.entering(bland)
	c.add("entering(%v) = %d", bland, col)
	return col
}

func (c callLogTableau) leaving(col int) int {
	r := c.tableau.leaving(col)
	c.add("leaving(%d) = %d", col, r)
	return r
}

func (c callLogTableau) pivot(pr, pc int) {
	c.tableau.pivot(pr, pc)
	c.add("pivot(%d, %d)", pr, pc)
}

func (c callLogTableau) pivotForward(pr, pc int, wanted []bool) {
	c.tableau.pivotForward(pr, pc, wanted)
	c.add("pivotForward(%d, %d)", pr, pc)
}

func (c callLogTableau) installObjective(entries []colVal, den scalar) {
	c.tableau.installObjective(entries, den)
	c.add("installObjective(%d entries)", len(entries))
}

func (c callLogTableau) dropRow(i int) {
	c.tableau.dropRow(i)
	c.add("dropRow(%d)", i)
}

func (c callLogTableau) dropColumns(cols []bool) {
	c.tableau.dropColumns(cols)
	c.add("dropColumns(%v)", cols)
}

func (c callLogTableau) negateRow(i int) {
	c.tableau.negateRow(i)
	c.add("negateRow(%d)", i)
}

// SameTableauCalls fails t unless the two call logs are equal, naming
// the first call where they part.
func SameTableauCalls(t *testing.T, label string, untraced, traced []string) {
	t.Helper()
	for i := range min(len(untraced), len(traced)) {
		if untraced[i] != traced[i] {
			t.Fatalf("%s: call %d: untraced %s, traced %s", label, i, untraced[i], traced[i])
		}
	}
	if len(untraced) != len(traced) {
		t.Fatalf("%s: untraced solve makes %d tableau calls, traced %d", label, len(untraced), len(traced))
	}
}

// TestTracingChangesNoTableauWork: a traced solve must make exactly the
// tableau calls an untraced solve makes, so the per-layer numbers a trace
// reports describe the untraced program. Inputs are tracedModel and
// FuzzLP's seeds, each solved cold and then warm from its cold basis.
func TestTracingChangesNoTableauWork(t *testing.T) {
	models := []*Model{tracedModel()}
	for _, seed := range fuzzLPSeeds {
		models = append(models, decodeLP(seed))
	}
	solve := func(m *Model, traced bool) ([]string, *Solution) {
		var log []string
		ctx := WithCallLog(context.Background(), &log)
		if traced {
			ctx = obs.WithTracer(ctx, obs.NewTracer("solve"))
		}
		sol, err := m.SolveCtx(ctx)
		if err != nil {
			log = append(log, "error: "+err.Error())
		}
		return log, sol
	}
	pivots := 0
	for i, m := range models {
		untraced, cold := solve(m, false)
		traced, _ := solve(m, true)
		SameTableauCalls(t, fmt.Sprintf("model %d cold", i), untraced, traced)
		if cold == nil {
			continue
		}
		pivots += cold.Iterations
		m.StartFrom(cold.Basis())
		untraced, _ = solve(m, false)
		traced, _ = solve(m, true)
		SameTableauCalls(t, fmt.Sprintf("model %d warm", i), untraced, traced)
	}
	if pivots == 0 {
		t.Fatal("no input pivots; the comparison shows nothing")
	}
}

// TestBlandBudgetPerPhase pins where Bland's fallback is decided: under a
// budget of k pivots, iterate prices each phase with entering(false) for
// its first k+1 calls and entering(true) from then on, and the first
// phase-2 call is back at false. Each phase of the degenerate phase-1
// program makes more than k+1 calls at both budgets, so the log shows
// both sides of the switch in both phases.
func TestBlandBudgetPerPhase(t *testing.T) {
	for _, k := range []int{0, 1} {
		m := degenerateProgram(rat.One())
		m.setBlandAfter(k)
		var log []string
		if _, err := m.SolveCtx(WithCallLog(context.Background(), &log)); err != nil {
			t.Fatalf("budget %d: %v", k, err)
		}
		var phases [][]string // the entering calls after each installed objective
		for _, call := range log {
			switch {
			case strings.HasPrefix(call, "installObjective("):
				phases = append(phases, nil)
			case strings.HasPrefix(call, "entering("):
				phases[len(phases)-1] = append(phases[len(phases)-1], call)
			}
		}
		if len(phases) != 2 {
			t.Fatalf("budget %d: %d objectives installed, want 2: %q", k, len(phases), log)
		}
		for p, calls := range phases {
			if len(calls) <= k+1 {
				t.Fatalf("budget %d, phase %d: %d entering calls, too few to show the switch: %q", k, p+1, len(calls), calls)
			}
			for i, call := range calls {
				if want := fmt.Sprintf("entering(%v) ", i > k); !strings.HasPrefix(call, want) {
					t.Errorf("budget %d, phase %d, call %d: %s, want %s…", k, p+1, i+1, call, want)
				}
			}
		}
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
		rec := newPivotRecorder(span)
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
