package lp

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rat"
)

// solveBoth solves the model under each tableau implementation and pins
// bit-exact equivalence: same objective, same variable values, same total
// and phase-1 pivot counts (the implementations must walk the same vertex
// path, not merely reach the same optimum).
func solveBoth(t *testing.T, m *Model) (*Solution, *Solution) {
	t.Helper()
	sparse, sErr := m.SolveCtx(sparseKind.ctx())
	dense, dErr := m.SolveCtx(denseKind.ctx())
	if (sErr == nil) != (dErr == nil) {
		t.Fatalf("sparse err = %v, dense err = %v", sErr, dErr)
	}
	if sErr != nil {
		if sErr != dErr {
			t.Fatalf("sparse err = %v, dense err = %v", sErr, dErr)
		}
		return nil, nil
	}
	if !rat.Eq(sparse.Objective, dense.Objective) {
		t.Fatalf("objective: sparse %s, dense %s",
			sparse.Objective.RatString(), dense.Objective.RatString())
	}
	sv, dv := sparse.Values(), dense.Values()
	for i := range sv {
		if !rat.Eq(sv[i], dv[i]) {
			t.Fatalf("value %s: sparse %s, dense %s",
				m.names[i], sv[i].RatString(), dv[i].RatString())
		}
	}
	if sparse.Iterations != dense.Iterations {
		t.Fatalf("pivots: sparse %d, dense %d", sparse.Iterations, dense.Iterations)
	}
	if sparse.Phase1Iterations != dense.Phase1Iterations {
		t.Fatalf("phase-1 pivots: sparse %d, dense %d",
			sparse.Phase1Iterations, dense.Phase1Iterations)
	}
	if err := m.Verify(sparse.Values()); err != nil {
		t.Fatalf("sparse solution fails verification: %v", err)
	}
	if err := m.Verify(dense.Values()); err != nil {
		t.Fatalf("dense solution fails verification: %v", err)
	}
	return sparse, dense
}

// TestSparseDenseKleeMinty: the Klee–Minty cubes walk long Dantzig paths
// (and past the Bland fallback at n=12), so pivot-sequence equivalence
// here exercises both rules and the big-integer hygiene of both
// representations.
func TestSparseDenseKleeMinty(t *testing.T) {
	for _, n := range []int{3, 5, 8, 10, 12} {
		m, want := kleeMinty(n)
		sparse, _ := solveBoth(t, m)
		if sparse.Objective.Num().Cmp(want) != 0 || !sparse.Objective.IsInt() {
			t.Errorf("n=%d: objective %s, want %s", n, sparse.Objective.RatString(), want)
		}
	}
}

// TestSparseDenseDegeneratePhase1: an equality system whose phase 1 is
// degenerate (redundant rows must be dropped, artificials driven out)
// followed by a phase-2 walk — the reset semantics must agree between the
// implementations.
func TestSparseDenseDegeneratePhase1(t *testing.T) {
	build := func() *Model {
		m := NewMaximize()
		x := m.Var("x")
		y := m.Var("y")
		z := m.Var("z")
		m.SetObjective(x, rat.Int(1))
		m.SetObjective(y, rat.Int(2))
		m.SetObjective(z, rat.Int(3))
		// Duplicated and scaled equalities force redundant phase-1 rows;
		// the ≥ rows add surplus+artificial columns.
		m.AddConstraint("e1", NewExpr().Plus1(x).Plus1(y).Plus1(z), Eq, rat.Int(4))
		m.AddConstraint("e2", NewExpr().Plus1(x).Plus1(y).Plus1(z), Eq, rat.Int(4))
		m.AddConstraint("e3", NewExpr().Plus(rat.Int(2), x).Plus(rat.Int(2), y).Plus(rat.Int(2), z), Eq, rat.Int(8))
		m.AddConstraint("g1", NewExpr().Plus1(x).Plus1(y), Geq, rat.One())
		m.AddConstraint("g2", NewExpr().Plus1(z), Geq, rat.One())
		return m
	}
	sparse, _ := solveBoth(t, build())
	// x+y ≥ 1 caps z at 3; the best unit goes to y: z = 0 + 2·1 + 3·3.
	if !rat.Eq(sparse.Objective, rat.Int(11)) {
		t.Errorf("objective = %s, want 11 (y=1, z=3)", sparse.Objective.RatString())
	}
	if sparse.Phase1Iterations == 0 {
		t.Error("expected a nontrivial phase 1")
	}

	// The same system under a zero Bland budget (phase 1 trips the cycling
	// fallback immediately) must still agree between implementations.
	m := build()
	m.setBlandAfter(0)
	solveBoth(t, m)
}

// TestSparseDenseBeale: the classic cycling-prone degenerate program.
func TestSparseDenseBeale(t *testing.T) {
	m := NewMinimize()
	x4 := m.Var("x4")
	x5 := m.Var("x5")
	x6 := m.Var("x6")
	x7 := m.Var("x7")
	m.SetObjective(x4, rat.New(-3, 4))
	m.SetObjective(x5, rat.Int(150))
	m.SetObjective(x6, rat.New(-1, 50))
	m.SetObjective(x7, rat.Int(6))
	m.AddConstraint("r1",
		NewExpr().Plus(rat.New(1, 4), x4).Minus(rat.Int(60), x5).Minus(rat.New(1, 25), x6).Plus(rat.Int(9), x7),
		Leq, rat.Zero())
	m.AddConstraint("r2",
		NewExpr().Plus(rat.New(1, 2), x4).Minus(rat.Int(90), x5).Minus(rat.New(1, 50), x6).Plus(rat.Int(3), x7),
		Leq, rat.Zero())
	m.AddConstraint("r3", NewExpr().Plus1(x6), Leq, rat.One())
	sparse, _ := solveBoth(t, m)
	if !rat.Eq(sparse.Objective, rat.New(-1, 20)) {
		t.Errorf("objective = %s, want -1/20", sparse.Objective.RatString())
	}
}

// TestSparseDenseInfeasibleUnbounded: the failure modes must agree too.
func TestSparseDenseInfeasibleUnbounded(t *testing.T) {
	inf := NewMaximize()
	x := inf.Var("x")
	inf.SetObjective(x, rat.One())
	inf.AddConstraint("lo", NewExpr().Plus1(x), Geq, rat.Int(5))
	inf.AddConstraint("hi", NewExpr().Plus1(x), Leq, rat.Int(3))
	solveBoth(t, inf)

	unb := NewMaximize()
	u := unb.Var("x")
	v := unb.Var("y")
	unb.SetObjective(u, rat.One())
	unb.AddConstraint("c", NewExpr().Plus1(v), Leq, rat.Int(3))
	solveBoth(t, unb)
}

// TestSparseDenseRandom cross-checks the two implementations on random
// small LPs (a different corner of the space than the structured
// steady-state programs; the brute-force oracle test already pins the
// sparse result against vertex enumeration).
func TestSparseDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(3)
		mr := 2 + rng.Intn(4)
		m := NewMaximize()
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = m.Var(fmt.Sprintf("x%d", j))
			m.SetObjective(vars[j], rat.Int(int64(rng.Intn(11)-5)))
		}
		for i := 0; i < mr; i++ {
			e := NewExpr()
			for j := 0; j < n; j++ {
				e = e.Plus(rat.Int(int64(rng.Intn(9)-3)), vars[j])
			}
			sense := []Sense{Leq, Geq, Eq}[rng.Intn(3)]
			e = e.canonical()
			if len(e) == 0 {
				continue
			}
			m.AddConstraint(fmt.Sprintf("c%d", i), e, sense, rat.Int(int64(rng.Intn(15)-3)))
		}
		for j := 0; j < n; j++ {
			m.SetUpper(vars[j], rat.Int(int64(10+rng.Intn(10))))
		}
		solveBoth(t, m)
	}
}

// TestExprPlusMergesDuplicates pins the sparse-expression semantics: x + x
// is one term with coefficient 2, in the stored constraint, in Verify and
// in the solver.
func TestExprPlusMergesDuplicates(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.One())

	e := NewExpr().Plus1(x).Plus1(x)
	if len(e) != 1 {
		t.Fatalf("x + x has %d terms, want 1 merged term", len(e))
	}
	if !rat.Eq(e[0].Coeff, rat.Int(2)) {
		t.Fatalf("x + x coefficient = %s, want 2", e[0].Coeff.RatString())
	}
	m.AddConstraint("c", e, Leq, rat.Int(4))
	if got := m.Constraints()[0].Expr; len(got) != 1 || !rat.Eq(got[0].Coeff, rat.Int(2)) {
		t.Fatalf("stored constraint = %v, want single 2x term", got)
	}

	// Verify must treat the constraint as 2x ≤ 4.
	if err := m.Verify([]rat.Rat{rat.Int(2)}); err != nil {
		t.Errorf("Verify rejected x=2 under x+x ≤ 4: %v", err)
	}
	if err := m.Verify([]rat.Rat{rat.New(5, 2)}); err == nil {
		t.Error("Verify accepted x=5/2 under x+x ≤ 4")
	}

	// And the solver must optimize it as 2x ≤ 4 under both tableaus.
	sparse, _ := solveBoth(t, m)
	if !rat.Eq(sparse.Value(x), rat.Int(2)) {
		t.Errorf("x = %s, want 2", sparse.Value(x).RatString())
	}
}

// TestExprCancellationAndConcat: coefficients that sum to zero drop out,
// and Concat merges sorted sparse vectors.
func TestExprCancellationAndConcat(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	z := m.Var("z")

	e := NewExpr().Plus1(x).Plus1(y).Minus(rat.One(), x)
	if len(e) != 1 || e[0].Var != y {
		t.Fatalf("x + y - x = %v, want the single term y", e)
	}

	a := NewExpr().Plus1(x).Plus(rat.Int(2), z)
	b := NewExpr().Plus(rat.Int(3), x).Plus1(y)
	c := a.Concat(b)
	want := []struct {
		v Var
		c rat.Rat
	}{{x, rat.Int(4)}, {y, rat.One()}, {z, rat.Int(2)}}
	if len(c) != len(want) {
		t.Fatalf("Concat = %v, want 3 terms", c)
	}
	for i, w := range want {
		if c[i].Var != w.v || !rat.Eq(c[i].Coeff, w.c) {
			t.Errorf("Concat[%d] = (%d, %s), want (%d, %s)",
				i, c[i].Var, c[i].Coeff.RatString(), w.v, w.c.RatString())
		}
	}
	// Concat must not have mutated its operands.
	if len(a) != 2 || !rat.Eq(a.Coeff(x), rat.One()) {
		t.Errorf("Concat mutated its receiver: %v", a)
	}
	if len(b) != 2 || !rat.Eq(b.Coeff(x), rat.Int(3)) {
		t.Errorf("Concat mutated its argument: %v", b)
	}
}

// TestExprDerivedExpressionsDoNotAlias: two expressions extended from one
// shared prefix must not clobber each other's appended terms (the append
// fast path must not write into a shared backing array).
func TestExprDerivedExpressionsDoNotAlias(t *testing.T) {
	base := NewExpr().Plus1(Var(0)).Plus1(Var(1)).Plus1(Var(2))
	a := base.Plus(rat.Int(7), Var(3))
	b := base.Plus(rat.Int(9), Var(4))
	if len(a) != 4 || a[3].Var != Var(3) || !rat.Eq(a[3].Coeff, rat.Int(7)) {
		t.Fatalf("a = %v; extending b corrupted a's appended term", a)
	}
	if len(b) != 4 || b[3].Var != Var(4) || !rat.Eq(b[3].Coeff, rat.Int(9)) {
		t.Fatalf("b = %v", b)
	}
}

// TestModelStats pins the nonzero/density accounting.
func TestModelStats(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	z := m.Var("z")
	m.AddConstraint("c1", NewExpr().Plus1(x).Plus1(y), Leq, rat.One())
	m.AddConstraint("c2", NewExpr().Plus1(z), Leq, rat.One())
	s := m.Stats()
	if s.Vars != 3 || s.Constraints != 2 || s.NonZeros != 3 {
		t.Fatalf("Stats = %+v, want 3 vars, 2 constraints, 3 nonzeros", s)
	}
	if want := 3.0 / 6.0; s.Density != want {
		t.Errorf("Density = %v, want %v", s.Density, want)
	}
	if empty := NewMaximize().Stats(); empty.Density != 0 {
		t.Errorf("empty model density = %v, want 0", empty.Density)
	}
}

// TestBlandOverridePerSolve: the fallback override is per model, not a
// package global — concurrent solves with different overrides must not
// interfere (this was a data race when the override was a package var).
func TestBlandOverridePerSolve(t *testing.T) {
	build := func(override int) *Model {
		m := NewMaximize()
		if override >= 0 {
			m.setBlandAfter(override)
		}
		x1 := m.Var("x1")
		x2 := m.Var("x2")
		x3 := m.Var("x3")
		m.SetObjective(x1, rat.Int(1))
		m.SetObjective(x2, rat.Int(2))
		m.SetObjective(x3, rat.Int(3))
		m.AddConstraint("sum", NewExpr().Plus1(x1).Plus1(x2).Plus1(x3), Eq, rat.One())
		return m
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		override := -1
		if g%2 == 0 {
			override = 0
		}
		wg.Add(1)
		go func(override int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				sol, err := build(override).SolveCtx(context.Background())
				if err != nil {
					t.Errorf("Solve: %v", err)
					return
				}
				if !rat.Eq(sol.Objective, rat.Int(3)) {
					t.Errorf("objective = %s, want 3", sol.Objective.RatString())
					return
				}
			}
		}(override)
	}
	wg.Wait()
}
