package lp

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

func mustSolve(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := m.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := m.Verify(sol.Values()); err != nil {
		t.Fatalf("solution fails verification: %v", err)
	}
	if got := m.EvalObjective(sol.Values()); !rat.Eq(got, sol.Objective) {
		t.Fatalf("objective mismatch: reported %s, recomputed %s",
			sol.Objective.RatString(), got.RatString())
	}
	return sol
}

func TestSolveTextbookMax(t *testing.T) {
	// max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  → z = 36 at (2,6).
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.Int(3))
	m.SetObjective(y, rat.Int(5))
	m.AddConstraint("c1", NewExpr().Plus1(x), Leq, rat.Int(4))
	m.AddConstraint("c2", NewExpr().Plus(rat.Int(2), y), Leq, rat.Int(12))
	m.AddConstraint("c3", NewExpr().Plus(rat.Int(3), x).Plus(rat.Int(2), y), Leq, rat.Int(18))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.Int(36)) {
		t.Errorf("objective = %s, want 36", sol.Objective.RatString())
	}
	if !rat.Eq(sol.Value(x), rat.Int(2)) || !rat.Eq(sol.Value(y), rat.Int(6)) {
		t.Errorf("solution = (%s, %s), want (2, 6)", sol.Value(x).RatString(), sol.Value(y).RatString())
	}
}

func TestSolveMinimizeWithGeq(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3 → x=7, y=3, z = 23.
	m := NewMinimize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.Int(2))
	m.SetObjective(y, rat.Int(3))
	m.AddConstraint("sum", NewExpr().Plus1(x).Plus1(y), Geq, rat.Int(10))
	m.AddConstraint("xmin", NewExpr().Plus1(x), Geq, rat.Int(2))
	m.AddConstraint("ymin", NewExpr().Plus1(y), Geq, rat.Int(3))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.Int(23)) {
		t.Errorf("objective = %s, want 23", sol.Objective.RatString())
	}
}

func TestSolveEqualityConstraints(t *testing.T) {
	// max x + y s.t. x + 2y = 4, 3x + y = 7 → x=2, y=1, z=3.
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	m.SetObjective(y, rat.One())
	m.AddConstraint("e1", NewExpr().Plus1(x).Plus(rat.Int(2), y), Eq, rat.Int(4))
	m.AddConstraint("e2", NewExpr().Plus(rat.Int(3), x).Plus1(y), Eq, rat.Int(7))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Value(x), rat.Int(2)) || !rat.Eq(sol.Value(y), rat.Int(1)) {
		t.Errorf("solution = (%s, %s), want (2, 1)", sol.Value(x).RatString(), sol.Value(y).RatString())
	}
}

func TestSolveRationalOptimum(t *testing.T) {
	// max x s.t. 3x ≤ 1 → x = 1/3. Exactness check.
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.One())
	m.AddConstraint("c", NewExpr().Plus(rat.Int(3), x), Leq, rat.One())
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Value(x), rat.New(1, 3)) {
		t.Errorf("x = %s, want exactly 1/3", sol.Value(x).RatString())
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.One())
	m.AddConstraint("lo", NewExpr().Plus1(x), Geq, rat.Int(5))
	m.AddConstraint("hi", NewExpr().Plus1(x), Leq, rat.Int(3))
	if _, err := m.SolveCtx(context.Background()); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	// y is constrained, x is free to grow.
	m.AddConstraint("c", NewExpr().Plus1(y), Leq, rat.Int(3))
	if _, err := m.SolveCtx(context.Background()); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestSolveNoConstraintsZeroObjective(t *testing.T) {
	// max -x over x ≥ 0 → x = 0, z = 0.
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.Int(-1))
	sol := mustSolve(t, m)
	if !rat.IsZero(sol.Objective) || !rat.IsZero(sol.Value(x)) {
		t.Errorf("got z=%s x=%s, want 0, 0", sol.Objective.RatString(), sol.Value(x).RatString())
	}
}

func TestSolveUpperBounds(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	m.SetObjective(y, rat.One())
	m.SetUpper(x, rat.New(1, 2))
	m.SetUpper(y, rat.New(3, 4))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.New(5, 4)) {
		t.Errorf("objective = %s, want 5/4", sol.Objective.RatString())
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// x - y ≤ -2 with max x, x ≤ 5 → y ≥ x+2, y free to grow? y has no
	// objective; feasible with x=5, y=7.
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	m.AddConstraint("c1", NewExpr().Plus1(x).Minus(rat.One(), y), Leq, rat.Int(-2))
	m.AddConstraint("c2", NewExpr().Plus1(x), Leq, rat.Int(5))
	m.AddConstraint("c3", NewExpr().Plus1(y), Leq, rat.Int(100))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.Int(5)) {
		t.Errorf("objective = %s, want 5", sol.Objective.RatString())
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP (multiple constraints active at the
	// optimum). Beale's cycling example, which defeats naive Dantzig
	// without anti-cycling:
	//   min -0.75x4 + 150x5 - 0.02x6 + 6x7
	//   s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 ≤ 0
	//        0.5x4 - 90x5 - 0.02x6 + 3x7 ≤ 0
	//        x6 ≤ 1
	// Optimum: z = -0.05 (x6 = 1, x4 = x5 = x7 chosen accordingly).
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
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.New(-1, 20)) {
		t.Errorf("objective = %s, want -1/20", sol.Objective.RatString())
	}
}

func TestPhase2ResetsBlandRule(t *testing.T) {
	// Regression: tableau.bland used to leak from phase 1 into phase 2 —
	// once a degenerate phase 1 exhausted the pivot budget, the entire
	// phase-2 solve was stuck on Bland's slow lowest-index rule. Shrinking
	// the budget to zero makes any phase 1 "long": its first pivot already
	// exceeds the budget, so phase 1 ends with bland=true.
	//
	// max x1 + 2x2 + 3x3  s.t.  x1 + x2 + x3 = 1  → z = 3 at x3 = 1.
	// Phase 1 (one pivot, enters x1) trips the zero budget. A Dantzig
	// phase 2 then pivots straight to x3 (most negative reduced cost):
	// 2 pivots total. A leaked Bland phase 2 walks x2 then x3: 3 pivots.
	m := NewMaximize()
	m.setBlandAfter(0)
	x1 := m.Var("x1")
	x2 := m.Var("x2")
	x3 := m.Var("x3")
	m.SetObjective(x1, rat.Int(1))
	m.SetObjective(x2, rat.Int(2))
	m.SetObjective(x3, rat.Int(3))
	m.AddConstraint("sum", NewExpr().Plus1(x1).Plus1(x2).Plus1(x3), Eq, rat.One())
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.Int(3)) {
		t.Fatalf("objective = %s, want 3", sol.Objective.RatString())
	}
	if sol.Iterations > 2 {
		t.Errorf("solve took %d pivots, want ≤ 2 (phase 2 should restart on Dantzig's rule)", sol.Iterations)
	}
}

func TestSolveRedundantEqualities(t *testing.T) {
	// Duplicated equality rows exercise the redundant-row drop in the
	// phase-1 cleanup.
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	m.SetObjective(x, rat.One())
	m.AddConstraint("e1", NewExpr().Plus1(x).Plus1(y), Eq, rat.Int(4))
	m.AddConstraint("e2", NewExpr().Plus1(x).Plus1(y), Eq, rat.Int(4))
	m.AddConstraint("e3", NewExpr().Plus(rat.Int(2), x).Plus(rat.Int(2), y), Eq, rat.Int(8))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Objective, rat.Int(4)) {
		t.Errorf("objective = %s, want 4", sol.Objective.RatString())
	}
}

func TestSolveDuplicateTermsSummed(t *testing.T) {
	// x + x ≤ 4 must behave as 2x ≤ 4.
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.One())
	m.AddConstraint("c", NewExpr().Plus1(x).Plus1(x), Leq, rat.Int(4))
	sol := mustSolve(t, m)
	if !rat.Eq(sol.Value(x), rat.Int(2)) {
		t.Errorf("x = %s, want 2", sol.Value(x).RatString())
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	m.SetUpper(x, rat.Int(2))
	m.AddConstraint("c", NewExpr().Plus1(x), Leq, rat.One())

	if err := m.Verify([]rat.Rat{rat.Int(-1)}); err == nil {
		t.Error("Verify accepted a negative value")
	}
	if err := m.Verify([]rat.Rat{rat.Int(3)}); err == nil {
		t.Error("Verify accepted a bound violation")
	}
	if err := m.Verify([]rat.Rat{rat.New(3, 2)}); err == nil {
		t.Error("Verify accepted a constraint violation")
	}
	if err := m.Verify([]rat.Rat{rat.One()}); err != nil {
		t.Errorf("Verify rejected a feasible point: %v", err)
	}
	if err := m.Verify(nil); err == nil {
		t.Error("Verify accepted wrong-length values")
	}
}

func TestDuplicateVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Var did not panic")
		}
	}()
	m := NewMaximize()
	m.Var("x")
	m.Var("x")
}

func TestSolutionAccessors(t *testing.T) {
	m := NewMaximize()
	x := m.Var("x")
	m.SetObjective(x, rat.One())
	m.AddConstraint("c", NewExpr().Plus1(x), Leq, rat.Int(7))
	sol := mustSolve(t, m)
	if v := sol.ValueByName("x"); v == nil || !rat.Eq(v, rat.Int(7)) {
		t.Errorf("ValueByName(x) = %v, want 7", v)
	}
	if v := sol.ValueByName("nope"); v != nil {
		t.Errorf("ValueByName(nope) = %v, want nil", v)
	}
	nz := sol.NonZero()
	if len(nz) != 1 || nz[0].Name != "x" {
		t.Errorf("NonZero = %v", nz)
	}
	if sol.String() == "" {
		t.Error("String is empty")
	}
}

// eqn is one candidate tight equation for the brute-force oracle.
type eqn struct {
	coef []rat.Rat
	rhs  rat.Rat
}

// bruteForceMax enumerates all basic solutions of {Ax ≤ b, x ≥ 0} for tiny
// systems by trying every subset of tight constraints, and returns the best
// feasible objective, or nil if none. Exponential, test-only oracle.
func bruteForceMax(obj []rat.Rat, a [][]rat.Rat, b []rat.Rat) rat.Rat {
	n := len(obj)
	mRows := len(a)
	// Candidate equations: each constraint tight, or each variable at 0.
	var eqns []eqn
	for i := 0; i < mRows; i++ {
		eqns = append(eqns, eqn{a[i], b[i]})
	}
	for v := 0; v < n; v++ {
		coef := make([]rat.Rat, n)
		for j := range coef {
			coef[j] = rat.Zero()
		}
		coef[v] = rat.One()
		eqns = append(eqns, eqn{coef, rat.Zero()})
	}
	feasible := func(x []rat.Rat) bool {
		for _, xi := range x {
			if xi.Sign() < 0 {
				return false
			}
		}
		for i := 0; i < mRows; i++ {
			lhs := rat.Zero()
			for j := 0; j < n; j++ {
				lhs.Add(lhs, rat.Mul(a[i][j], x[j]))
			}
			if lhs.Cmp(b[i]) > 0 {
				return false
			}
		}
		return true
	}
	var best rat.Rat
	// Choose n equations out of len(eqns) (n ≤ 3 in tests).
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == n {
			x := solveSquare(eqns, chosen, n)
			if x == nil || !feasible(x) {
				return
			}
			z := rat.Zero()
			for j := 0; j < n; j++ {
				z.Add(z, rat.Mul(obj[j], x[j]))
			}
			if best == nil || z.Cmp(best) > 0 {
				best = z
			}
			return
		}
		for i := start; i < len(eqns); i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	return best
}

// solveSquare solves the n×n system given by the chosen equations with
// Gaussian elimination over rationals; returns nil if singular.
func solveSquare(eqns []eqn, chosen []int, n int) []rat.Rat {
	// Build augmented matrix.
	aug := make([][]rat.Rat, n)
	for i, idx := range chosen {
		aug[i] = make([]rat.Rat, n+1)
		for j := 0; j < n; j++ {
			aug[i][j] = rat.Copy(eqns[idx].coef[j])
		}
		aug[i][n] = rat.Copy(eqns[idx].rhs)
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if !rat.IsZero(aug[r][col]) {
				piv = r
				break
			}
		}
		if piv == -1 {
			return nil
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := rat.Inv(aug[col][col])
		for j := col; j <= n; j++ {
			aug[col][j] = rat.Mul(aug[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || rat.IsZero(aug[r][col]) {
				continue
			}
			f := rat.Copy(aug[r][col])
			for j := col; j <= n; j++ {
				aug[r][j] = rat.Sub(aug[r][j], rat.Mul(f, aug[col][j]))
			}
		}
	}
	x := make([]rat.Rat, n)
	for i := 0; i < n; i++ {
		x[i] = aug[i][n]
	}
	return x
}

// TestSolveAgainstBruteForce cross-checks the simplex against exhaustive
// vertex enumeration on random small LPs with bounded feasible regions.
func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2)  // 2..3 variables
		mr := 2 + rng.Intn(3) // 2..4 constraints
		obj := make([]rat.Rat, n)
		for j := range obj {
			obj[j] = rat.Int(int64(rng.Intn(11) - 5))
		}
		a := make([][]rat.Rat, mr)
		b := make([]rat.Rat, mr)
		for i := range a {
			a[i] = make([]rat.Rat, n)
			for j := range a[i] {
				a[i][j] = rat.Int(int64(rng.Intn(7) - 2))
			}
			b[i] = rat.Int(int64(rng.Intn(10) + 1))
		}
		// Bound the region so the LP is never unbounded.
		for j := 0; j < n; j++ {
			coef := make([]rat.Rat, n)
			for k := range coef {
				coef[k] = rat.Zero()
			}
			coef[j] = rat.One()
			a = append(a, coef)
			b = append(b, rat.Int(20))
		}

		model := NewMaximize()
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = model.Var(fmt.Sprintf("x%d", j))
			model.SetObjective(vars[j], obj[j])
		}
		for i := range a {
			e := NewExpr()
			for j := 0; j < n; j++ {
				e = e.Plus(a[i][j], vars[j])
			}
			model.AddConstraint(fmt.Sprintf("c%d", i), e, Leq, b[i])
		}
		sol, err := model.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if err := model.Verify(sol.Values()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForceMax(obj, a, b)
		if want == nil {
			t.Fatalf("trial %d: brute force found no vertex but simplex succeeded", trial)
		}
		if !rat.Eq(sol.Objective, want) {
			t.Errorf("trial %d: simplex = %s, brute force = %s",
				trial, sol.Objective.RatString(), want.RatString())
		}
	}
}

func TestRowNormalize(t *testing.T) {
	r := &row{n: []*big.Int{big.NewInt(6), big.NewInt(-9), big.NewInt(0)}, d: big.NewInt(12)}
	r.normalize()
	if r.d.Int64() != 4 || r.n[0].Int64() != 2 || r.n[1].Int64() != -3 || r.n[2].Int64() != 0 {
		t.Errorf("normalize: got n=%v d=%v", r.n, r.d)
	}
	// The same row as a sparse word row divides out the same content gcd.
	w := &sparseRow{cols: []int{0, 1}, w: []int64{6, -9}, wd: 12}
	normalizeWords(w)
	if w.wd != 4 || w.w[0] != 2 || w.w[1] != -3 {
		t.Errorf("normalizeWords: got w=%v d=%v", w.w, w.wd)
	}
}

func TestLargePipelineLPPerformance(t *testing.T) {
	// A flow-shaped LP similar in structure to the scatter programs:
	// maximize flow through a layered network. Not a benchmark, just a
	// guard that medium LPs (hundreds of vars) solve.
	const layers, width = 6, 5
	m := NewMaximize()
	// vars: f[l][i][j] flow from node i in layer l to node j in layer l+1
	type key struct{ l, i, j int }
	fv := map[key]Var{}
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				fv[key{l, i, j}] = m.Var(fmt.Sprintf("f_%d_%d_%d", l, i, j))
			}
		}
	}
	tp := m.Var("TP")
	m.SetObjective(tp, rat.One())
	// Capacity: each edge ≤ 1.
	for k, v := range fv {
		_ = k
		m.SetUpper(v, rat.One())
	}
	// Conservation at middle layers.
	for l := 1; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			e := NewExpr()
			for j := 0; j < width; j++ {
				e = e.Plus1(fv[key{l - 1, j, i}])
				e = e.Minus(rat.One(), fv[key{l, i, j}])
			}
			m.AddConstraint(fmt.Sprintf("cons_%d_%d", l, i), e, Eq, rat.Zero())
		}
	}
	// Source emits TP total.
	e := NewExpr()
	for i := 0; i < width; i++ {
		for j := 0; j < width; j++ {
			e = e.Plus1(fv[key{0, i, j}])
		}
	}
	e = e.Minus(rat.One(), tp)
	m.AddConstraint("src", e, Eq, rat.Zero())
	sol := mustSolve(t, m)
	// Max flow = width² edges on the first layer? No: bounded by 25 per
	// layer crossing; conservation forces equal layer flow, so 25.
	if !rat.Eq(sol.Objective, rat.Int(width*width)) {
		t.Errorf("objective = %s, want %d", sol.Objective.RatString(), width*width)
	}
}
