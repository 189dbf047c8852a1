package lp

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/rat"
)

// warmSolve solves m on the named tableau starting from the given
// candidate basis; the solution carries the outcome.
func warmSolve(t *testing.T, m *Model, b *Basis, kind tableauKind) *Solution {
	t.Helper()
	m.StartFrom(b)
	sol, err := m.SolveCtx(kind.ctx())
	if err != nil {
		t.Fatalf("warm solve (%s): %v", kind, err)
	}
	if err := m.Verify(sol.Values()); err != nil {
		t.Fatalf("warm solution fails verification: %v", err)
	}
	return sol
}

// scaledModel rebuilds the degenerate phase-1 test program with every
// constraint coefficient scaled by f — same structure (fingerprint), new
// numbers.
func degenerateProgram(f rat.Rat) *Model {
	m := NewMaximize()
	x := m.Var("x")
	y := m.Var("y")
	z := m.Var("z")
	m.SetObjective(x, rat.Int(1))
	m.SetObjective(y, rat.Int(2))
	m.SetObjective(z, rat.Int(3))
	s := func(n int64) rat.Rat { return rat.Mul(rat.Int(n), f) }
	m.AddConstraint("e1", NewExpr().Plus(s(1), x).Plus(s(1), y).Plus(s(1), z), Eq, rat.Int(4))
	m.AddConstraint("e2", NewExpr().Plus(s(1), x).Plus(s(1), y).Plus(s(1), z), Eq, rat.Int(4))
	m.AddConstraint("e3", NewExpr().Plus(s(2), x).Plus(s(2), y).Plus(s(2), z), Eq, rat.Int(8))
	m.AddConstraint("g1", NewExpr().Plus(s(1), x).Plus(s(1), y), Geq, rat.One())
	m.AddConstraint("g2", NewExpr().Plus(s(1), z), Geq, rat.One())
	return m
}

// TestWarmResolveSkipsPhase1 pins the headline warm-start contract: a
// model re-solved from its own certified basis spends no iterate pivots
// in phase 1 (only the deterministic basis rebuild), reports WarmUsed,
// and reproduces the cold optimum bit for bit — under both tableaus.
func TestWarmResolveSkipsPhase1(t *testing.T) {
	for _, kind := range bothKinds {
		cold, err := degenerateProgram(rat.One()).SolveCtx(kind.ctx())
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		b := cold.Basis()
		if b == nil {
			t.Fatal("cold solution minted no basis")
		}
		m := degenerateProgram(rat.One())
		warm := warmSolve(t, m, b, kind)
		if !warm.WarmUsed {
			t.Fatalf("warm basis not used (%s): reject %q", kind, warm.WarmReject)
		}
		if !rat.Eq(warm.Objective, cold.Objective) {
			t.Fatalf("warm objective %s != cold %s", warm.Objective.RatString(), cold.Objective.RatString())
		}
		wv, cv := warm.Values(), cold.Values()
		for i := range wv {
			if !rat.Eq(wv[i], cv[i]) {
				t.Fatalf("value %d: warm %s, cold %s", i, wv[i].RatString(), cv[i].RatString())
			}
		}
		if warm.Phase1Iterations > cold.Phase1Iterations {
			t.Fatalf("warm phase-1 pivots %d above cold %d (%s)",
				warm.Phase1Iterations, cold.Phase1Iterations, kind)
		}
		if p2 := warm.Iterations - warm.Phase1Iterations; p2 != 0 {
			t.Fatalf("re-solve from the optimal basis spent %d phase-2 pivots (%s)", p2, kind)
		}
		if warm.Basis() == nil {
			t.Fatal("warm solve minted no final basis")
		}
	}
}

// randomWarmModel builds a small random LP from seed, with every
// objective and constraint coefficient scaled by scale: the same seed
// gives the same structure (fingerprint) for every scale.
func randomWarmModel(seed int64, scale rat.Rat) *Model {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(3)
	mr := 2 + r.Intn(4)
	m := NewMaximize()
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		vars[j] = m.Var(fmt.Sprintf("x%d", j))
		m.SetObjective(vars[j], rat.Mul(rat.Int(int64(r.Intn(11)-5)), scale))
	}
	for i := 0; i < mr; i++ {
		e := NewExpr()
		for j := 0; j < n; j++ {
			c := int64(r.Intn(9) - 3)
			if c == 0 {
				continue
			}
			e = e.Plus(rat.Mul(rat.Int(c), scale), vars[j])
		}
		sense := []Sense{Leq, Geq, Eq}[r.Intn(3)]
		if len(e) == 0 {
			continue
		}
		m.AddConstraint(fmt.Sprintf("c%d", i), e, sense, rat.Int(int64(r.Intn(15))))
	}
	for j := 0; j < n; j++ {
		m.SetUpper(vars[j], rat.Int(int64(10+r.Intn(10))))
	}
	return m
}

// TestWarmPerturbedEquivalence is the dense-vs-sparse warm property test:
// over random LPs, mint a basis from a cold solve, perturb every
// coefficient multiplicatively (structure preserved), and re-solve warm
// under both tableaus. The two implementations must take bit-identical
// pivot sequences (same counts, same values), and the warm optimum must
// equal the perturbed model's cold optimum exactly.
func TestWarmPerturbedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := randomWarmModel
	warmUses := 0
	for trial := 0; trial < 60; trial++ {
		seed := rng.Int63()
		cold, err := build(seed, rat.One()).SolveCtx(context.Background())
		if err != nil {
			continue
		}
		b := cold.Basis()
		perturbed := build(seed, rat.New(21, 20))
		pcold, err := perturbed.SolveCtx(context.Background())
		if err != nil {
			// The perturbation flipped the model infeasible/unbounded; the
			// warm path must agree on the failure.
			warm := build(seed, rat.New(21, 20))
			warm.StartFrom(b)
			if _, werr := warm.SolveCtx(context.Background()); werr != err {
				t.Fatalf("trial %d: warm err %v, cold err %v", trial, werr, err)
			}
			continue
		}
		sparse := warmSolve(t, build(seed, rat.New(21, 20)), b, sparseKind)
		dense := warmSolve(t, build(seed, rat.New(21, 20)), b, denseKind)
		if sparse.WarmUsed != dense.WarmUsed || sparse.WarmReject != dense.WarmReject {
			t.Fatalf("trial %d: warm outcome diverged: sparse (%v,%q) dense (%v,%q)",
				trial, sparse.WarmUsed, sparse.WarmReject, dense.WarmUsed, dense.WarmReject)
		}
		if !rat.Eq(sparse.Objective, dense.Objective) {
			t.Fatalf("trial %d: sparse %s, dense %s", trial,
				sparse.Objective.RatString(), dense.Objective.RatString())
		}
		sv, dv := sparse.Values(), dense.Values()
		for i := range sv {
			if !rat.Eq(sv[i], dv[i]) {
				t.Fatalf("trial %d value %d: sparse %s, dense %s", trial, i,
					sv[i].RatString(), dv[i].RatString())
			}
		}
		if sparse.Iterations != dense.Iterations || sparse.Phase1Iterations != dense.Phase1Iterations {
			t.Fatalf("trial %d: pivots sparse (%d,%d), dense (%d,%d)", trial,
				sparse.Iterations, sparse.Phase1Iterations, dense.Iterations, dense.Phase1Iterations)
		}
		if !slices.Equal(sparse.Basis().cols, dense.Basis().cols) {
			t.Fatalf("trial %d: final basis rows sparse %v, dense %v", trial,
				sparse.Basis().cols, dense.Basis().cols)
		}
		if !rat.Eq(sparse.Objective, pcold.Objective) {
			t.Fatalf("trial %d: warm optimum %s != cold optimum %s", trial,
				sparse.Objective.RatString(), pcold.Objective.RatString())
		}
		if sparse.WarmUsed {
			warmUses++
		}
	}
	if warmUses == 0 {
		t.Fatal("no trial exercised the warm-used path")
	}
}

// TestWarmFingerprintMismatch pins the rejection path under both
// tableaus, for the two bases that fit no model: the zero Basis, the
// only one code outside this package can build, and a basis minted from
// a structurally different model. Each is declined with
// WarmRejectFingerprint, and the solve is the cold solve: the same
// objective, values and pivot counters, plus a final basis for the cache.
func TestWarmFingerprintMismatch(t *testing.T) {
	donor := NewMaximize()
	x := donor.Var("x")
	donor.SetObjective(x, rat.One())
	donor.AddConstraint("c", NewExpr().Plus1(x), Leq, rat.Int(3))
	dsol, err := donor.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	candidates := []struct {
		name string
		b    *Basis
	}{{"zero", &Basis{}}, {"foreign", dsol.Basis()}}
	for _, kind := range bothKinds {
		cold, err := degenerateProgram(rat.One()).SolveCtx(kind.ctx())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range candidates {
			name, b := c.name, c.b
			warm := warmSolve(t, degenerateProgram(rat.One()), b, kind)
			if warm.WarmUsed || warm.WarmReject != WarmRejectFingerprint {
				t.Fatalf("%s basis (%s): used %v, reject %q, want reject %q",
					name, kind, warm.WarmUsed, warm.WarmReject, WarmRejectFingerprint)
			}
			if !rat.Eq(warm.Objective, cold.Objective) || warm.Iterations != cold.Iterations ||
				warm.Phase1Iterations != cold.Phase1Iterations {
				t.Fatalf("%s basis (%s): rejected warm solve diverged from cold: obj %s vs %s, pivots %d/%d vs %d/%d",
					name, kind, warm.Objective.RatString(), cold.Objective.RatString(),
					warm.Iterations, warm.Phase1Iterations, cold.Iterations, cold.Phase1Iterations)
			}
			wv, cv := warm.Values(), cold.Values()
			for i := range cv {
				if !rat.Eq(wv[i], cv[i]) {
					t.Fatalf("%s basis (%s): value %d = %s, cold %s", name, kind, i, wv[i].RatString(), cv[i].RatString())
				}
			}
			if warm.Basis() == nil {
				t.Fatalf("%s basis (%s): rejected solve should still mint a final basis for the cache", name, kind)
			}
		}
	}
}

// TestWarmInfeasibleBasisFallsBack drives the infeasible-rejection path:
// the warm basis matches structurally but is not primal-feasible for the
// new right-hand side, so the solve reports WarmRejectInfeasible and runs
// the untouched cold path — the same pivot counters and the same optimal
// vertex as a cold solve, under both tableaus.
func TestWarmInfeasibleBasisFallsBack(t *testing.T) {
	// max x s.t. x + y = 5, y ≤ 3, x ≤ B. At B=10 the optimal basis is
	// {x, s_y, s_x} with x = 5. Re-priced for B=4 the same basis gives
	// s_x = 4 − 5 = −1: structurally identical, primal-infeasible.
	build := func(bound int64) *Model {
		m := NewMaximize()
		x := m.Var("x")
		y := m.Var("y")
		m.SetObjective(x, rat.One())
		m.AddConstraint("sum", NewExpr().Plus1(x).Plus1(y), Eq, rat.Int(5))
		m.AddConstraint("ycap", NewExpr().Plus1(y), Leq, rat.Int(3))
		m.AddConstraint("xcap", NewExpr().Plus1(x), Leq, rat.Int(bound))
		return m
	}
	sol5, err := build(10).SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := sol5.Basis()
	for _, kind := range bothKinds {
		cold, err := build(4).SolveCtx(kind.ctx())
		if err != nil {
			t.Fatal(err)
		}
		warm := warmSolve(t, build(4), b, kind)
		if warm.WarmUsed {
			// The optimal basis of B=5 keeps the cap slack nonbasic at x=B;
			// with B=2 that stays feasible only if the basis never priced
			// the slack — guard the test's premise.
			t.Fatalf("expected infeasible warm basis to be rejected (%s)", kind)
		}
		if warm.WarmReject != WarmRejectInfeasible {
			t.Fatalf("reject reason %q, want %q (%s)", warm.WarmReject, WarmRejectInfeasible, kind)
		}
		if !rat.Eq(warm.Objective, cold.Objective) {
			t.Fatalf("fallback objective %s != cold %s (%s)",
				warm.Objective.RatString(), cold.Objective.RatString(), kind)
		}
		if warm.Iterations != cold.Iterations || warm.Phase1Iterations != cold.Phase1Iterations {
			t.Errorf("fallback pivots %d (phase 1 %d) != cold %d (phase 1 %d) (%s)",
				warm.Iterations, warm.Phase1Iterations, cold.Iterations, cold.Phase1Iterations, kind)
		}
		wv, cv := warm.Values(), cold.Values()
		for i := range cv {
			if !rat.Eq(wv[i], cv[i]) {
				t.Errorf("fallback value %d = %s, cold %s (%s)", i, wv[i].RatString(), cv[i].RatString(), kind)
			}
		}
	}
}

// TestDropRowRegression pins the dropRow splice fix end to end: a solve
// whose phase 1 drops redundant rows, whose certified basis then drives a
// warm re-solve that pivots again on the shrunken tableau — twice, so a
// stale aliased row or scratch buffer from the first pass would corrupt
// the second.
func TestDropRowRegression(t *testing.T) {
	for _, kind := range bothKinds {
		first, err := degenerateProgram(rat.One()).SolveCtx(kind.ctx())
		if err != nil {
			t.Fatalf("first solve (%s): %v", kind, err)
		}
		if !rat.Eq(first.Objective, rat.Int(11)) {
			t.Fatalf("objective = %s, want 11", first.Objective.RatString())
		}
		b := first.Basis()
		if b.Size() >= 5 {
			t.Fatalf("expected dropped redundant rows, basis size %d", b.Size())
		}
		// Warm re-solve with perturbed coefficients: rebuild pivots run on
		// a tableau that must be internally consistent after the drops.
		second := warmSolve(t, degenerateProgram(rat.New(10, 9)), b, kind)
		if !second.WarmUsed {
			t.Fatalf("warm basis rejected after drop (%s): %q", kind, second.WarmReject)
		}
		third := warmSolve(t, degenerateProgram(rat.New(10, 9)), second.Basis(), kind)
		if !rat.Eq(second.Objective, third.Objective) {
			t.Fatalf("re-pivot after drop diverged: %s vs %s",
				second.Objective.RatString(), third.Objective.RatString())
		}
	}
}

// freshTableau assembles m's initial tableau on the named tableau, with
// SolveCtx's column layout, and returns it with its column count and the
// number of entries buildTableau handed to it.
func freshTableau(kind tableauKind, m *Model) (tableau, int, int) {
	rows := m.normalizedRows()
	nSlack, nArt := 0, 0
	for _, r := range rows {
		if r.sense != Eq {
			nSlack++
		}
		if r.sense != Leq {
			nArt++
		}
	}
	nCols := len(m.names) + nSlack + nArt
	tab, _, nnz := buildTableau(kind.ctx(), rows, len(m.names), nSlack, nCols)
	return tab, nCols, nnz
}

// TestWarmRebuildPicksShortestRow pins the rebuild's row rule: a wanted
// column is pivoted into the eligible row with the fewest stored
// entries, not the first eligible row, and a tie goes to the lower row
// index, in whatever order the column index lists the rows. In "short",
// x has an entry in both rows, and the short row (x, slack, rhs) stores
// one entry fewer than the long row (x, y, slack, rhs), so x must become
// basic in row 1. In "tie", x enters row 2, the shorter of its rows,
// which fills y into row 0; the sparse index then lists y's rows as 1,
// 2, 0, and rows 0 and 1 both store 6 entries, so y must enter row 0.
func TestWarmRebuildPicksShortestRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(m *Model) (want []Var, basic map[int]Var)
	}{
		{"short", func(m *Model) ([]Var, map[int]Var) {
			x, y := m.Var("x"), m.Var("y")
			m.SetObjective(x, rat.Int(2))
			m.SetObjective(y, rat.One())
			m.AddConstraint("long", NewExpr().Plus1(x).Plus1(y), Leq, rat.Int(10))
			m.AddConstraint("short", NewExpr().Plus1(x), Leq, rat.Int(4))
			return []Var{x, y}, map[int]Var{0: y, 1: x}
		}},
		{"tie", func(m *Model) ([]Var, map[int]Var) {
			x, y, w, v := m.Var("x"), m.Var("y"), m.Var("w"), m.Var("v")
			a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
			m.SetObjective(x, rat.One())
			m.AddConstraint("r0", NewExpr().Plus1(x).Plus1(w).Plus1(v), Leq, rat.Int(3))
			m.AddConstraint("r1", NewExpr().Plus1(y).Plus1(a).Plus1(b).Plus1(c), Leq, rat.Int(7))
			m.AddConstraint("r2", NewExpr().Plus1(x).Plus1(y), Leq, rat.Int(2))
			return []Var{x, y}, map[int]Var{0: y, 2: x}
		}},
	} {
		for _, kind := range bothKinds {
			m := NewMaximize()
			want, basic := tc.build(m)
			cols := make([]int, len(want))
			for k, v := range want {
				cols[k] = int(v)
			}
			tab, nCols, _ := freshTableau(kind, m)
			if _, ok := rebuildWarmBasis(tab, cols, nCols); !ok {
				t.Fatalf("%s (%s): rebuild of %v reported a singular basis", tc.name, kind, cols)
			}
			for i, v := range basic {
				if got := tab.basic(i); got != int(v) {
					t.Errorf("%s (%s): row %d holds basic column %d, want %s = %d", tc.name, kind, i, got, m.names[v], v)
				}
			}
		}
	}
}

// rowSnapshot renders row i of tab exactly: its denominator, then the
// column and numerator of every stored entry in column order. A sparse
// row reads the same whether it is in word or wide form.
func rowSnapshot(tab tableau, i int) string {
	var sb strings.Builder
	put := func(d *big.Int, cols []int, nums []*big.Int) {
		fmt.Fprintf(&sb, "/%s", d)
		for k, c := range cols {
			fmt.Fprintf(&sb, " %d:%s", c, nums[k])
		}
	}
	switch tt := tab.(type) {
	case *sparseTableau:
		r := tt.rows[i]
		nums := make([]*big.Int, len(r.cols))
		for k := range nums {
			nums[k] = r.at(k).toBig(new(big.Int))
		}
		put(r.den().toBig(new(big.Int)), r.cols, nums)
	case *denseTableau:
		var cols []int
		var nums []*big.Int
		for c, v := range tt.rows[i].n {
			if v.Sign() != 0 {
				cols, nums = append(cols, c), append(nums, v)
			}
		}
		put(tt.rows[i].d, cols, nums)
	}
	return sb.String()
}

// TestWarmRebuildOrderInvariant pins the premise that lets the rebuild
// choose its pivot rows freely, and lets the sparse tableau leave rows
// waiting where the dense one eliminates eagerly: the settled tableau of
// a basis is unique up to row order, because each normalized row is B⁻¹A
// for its basic column. Over random LPs, the cold optimal basis is
// rebuilt on fresh tableaus with its columns in the given order and
// reversed; every settled row, keyed by its basic column, must read the
// same denominator, columns and numerators both times.
func TestWarmRebuildOrderInvariant(t *testing.T) {
	rebuilt := func(kind tableauKind, m *Model, want []int) map[int]string {
		t.Helper()
		tab, nCols, _ := freshTableau(kind, m)
		if _, ok := rebuildWarmBasis(tab, want, nCols); !ok {
			t.Fatalf("%s: rebuild of the model's own optimal basis %v reported singular", kind, want)
		}
		if s, ok := tab.(*sparseTableau); ok {
			tab = settledCopy(s)
		}
		rows := make(map[int]string, tab.nRows())
		for i := 0; i < tab.nRows(); i++ {
			rows[tab.basic(i)] = rowSnapshot(tab, i)
		}
		return rows
	}
	checked := 0
	for seed := int64(0); seed < 200; seed++ {
		cold, err := randomWarmModel(seed, rat.One()).SolveCtx(context.Background())
		if err != nil {
			continue
		}
		given := cold.Basis().cols
		reversed := slices.Clone(given)
		slices.Reverse(reversed)
		for _, kind := range bothKinds {
			m := randomWarmModel(seed, rat.One())
			a, b := rebuilt(kind, m, given), rebuilt(kind, m, reversed)
			if !maps.Equal(a, b) {
				t.Fatalf("seed %d (%s): rebuilt rows depend on column order:\n given    %v\n reversed %v",
					seed, kind, a, b)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no seeded LP solved")
	}
}
