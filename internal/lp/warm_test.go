package lp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lru"
	"repro/internal/rat"
)

// warmSolve solves m on the named tableau with the given candidate basis
// and returns the solution plus the handoff outcome.
func warmSolve(t *testing.T, m *Model, b *Basis, kind tableauKind) (*Solution, *WarmStart) {
	t.Helper()
	ws := &WarmStart{Basis: b}
	ctx := WithWarmBasis(kind.ctx(), ws)
	sol, err := m.SolveCtx(ctx)
	if err != nil {
		t.Fatalf("warm solve (%s): %v", kind, err)
	}
	if err := m.Verify(sol.Values()); err != nil {
		t.Fatalf("warm solution fails verification: %v", err)
	}
	return sol, ws
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
// in phase 1 (only the deterministic basis rebuild), reports ws.Used,
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
		warm, ws := warmSolve(t, m, b, kind)
		if !ws.Used {
			t.Fatalf("warm basis not used (%s): reject %q", kind, ws.RejectReason)
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
		if ws.Final == nil {
			t.Fatal("warm solve minted no final basis")
		}
	}
}

// TestWarmPerturbedEquivalence is the dense-vs-sparse warm property test:
// over random LPs, mint a basis from a cold solve, perturb every
// coefficient multiplicatively (structure preserved), and re-solve warm
// under both tableaus. The two implementations must take bit-identical
// pivot sequences (same counts, same values), and the warm optimum must
// equal the perturbed model's cold optimum exactly.
func TestWarmPerturbedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func(seed int64, scale rat.Rat) *Model {
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
			if _, werr := build(seed, rat.New(21, 20)).SolveCtx(
				WithWarmBasis(context.Background(), &WarmStart{Basis: b})); werr != err {
				t.Fatalf("trial %d: warm err %v, cold err %v", trial, werr, err)
			}
			continue
		}
		sparse, wsS := warmSolve(t, build(seed, rat.New(21, 20)), b, sparseKind)
		dense, wsD := warmSolve(t, build(seed, rat.New(21, 20)), b, denseKind)
		if wsS.Used != wsD.Used || wsS.RejectReason != wsD.RejectReason {
			t.Fatalf("trial %d: warm outcome diverged: sparse (%v,%q) dense (%v,%q)",
				trial, wsS.Used, wsS.RejectReason, wsD.Used, wsD.RejectReason)
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
		if !rat.Eq(sparse.Objective, pcold.Objective) {
			t.Fatalf("trial %d: warm optimum %s != cold optimum %s", trial,
				sparse.Objective.RatString(), pcold.Objective.RatString())
		}
		if wsS.Used {
			warmUses++
		}
	}
	if warmUses == 0 {
		t.Fatal("no trial exercised the warm-used path")
	}
}

// TestWarmFingerprintMismatch pins the rejection path: a basis minted
// from a structurally different model is declined with
// WarmRejectFingerprint and the solve degrades to the cold result.
func TestWarmFingerprintMismatch(t *testing.T) {
	donor := NewMaximize()
	x := donor.Var("x")
	donor.SetObjective(x, rat.One())
	donor.AddConstraint("c", NewExpr().Plus1(x), Leq, rat.Int(3))
	dsol, err := donor.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := degenerateProgram(rat.One())
	warm, ws := warmSolve(t, m, dsol.Basis(), sparseKind)
	if ws.Used {
		t.Fatal("structurally foreign basis was accepted")
	}
	if ws.RejectReason != WarmRejectFingerprint {
		t.Fatalf("reject reason %q, want %q", ws.RejectReason, WarmRejectFingerprint)
	}
	cold, err := degenerateProgram(rat.One()).SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rat.Eq(warm.Objective, cold.Objective) || warm.Iterations != cold.Iterations {
		t.Fatalf("rejected warm solve diverged from cold: obj %s vs %s, pivots %d vs %d",
			warm.Objective.RatString(), cold.Objective.RatString(), warm.Iterations, cold.Iterations)
	}
	if ws.Final == nil {
		t.Fatal("rejected solve should still mint a final basis for the cache")
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
		warm, ws := warmSolve(t, build(4), b, kind)
		if ws.Used {
			// The optimal basis of B=5 keeps the cap slack nonbasic at x=B;
			// with B=2 that stays feasible only if the basis never priced
			// the slack — guard the test's premise.
			t.Fatalf("expected infeasible warm basis to be rejected (%s)", kind)
		}
		if ws.RejectReason != WarmRejectInfeasible {
			t.Fatalf("reject reason %q, want %q (%s)", ws.RejectReason, WarmRejectInfeasible, kind)
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
		second, ws := warmSolve(t, degenerateProgram(rat.New(10, 9)), b, kind)
		if !ws.Used {
			t.Fatalf("warm basis rejected after drop (%s): %q", kind, ws.RejectReason)
		}
		third, _ := warmSolve(t, degenerateProgram(rat.New(10, 9)), second.Basis(), kind)
		if !rat.Eq(second.Objective, third.Objective) {
			t.Fatalf("re-pivot after drop diverged: %s vs %s",
				second.Objective.RatString(), third.Objective.RatString())
		}
	}
}

// TestBasisCacheLRU pins the cache's bounded deterministic behavior.
func TestBasisCacheLRU(t *testing.T) {
	sol, err := degenerateProgram(rat.One()).SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := sol.Basis()
	c := lru.New[*Basis](2)
	c.Put("a", b)
	c.Put("b", b)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted under capacity")
	}
	c.Put("c", b) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Fatal("lru entry not evicted")
	}
	if got, ok := c.Get("a"); !ok || got != b {
		t.Fatal("resident entry a missing")
	}
	if got, ok := c.Get("c"); !ok || got != b {
		t.Fatal("resident entry c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	var nilCache *BasisCache
	nilCache.Put("x", b)
	if _, ok := nilCache.Get("x"); ok || nilCache.Len() != 0 {
		t.Fatal("nil cache must be inert")
	}
	zero := lru.New[*Basis](0)
	zero.Put("x", b)
	if zero.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// TestWarmHandoffConsumedOnce pins the one-solve-per-handoff contract:
// a second solve under the same context runs cold — it spends the cold
// solve's phase-1 pivots and leaves the handoff's outcome untouched.
func TestWarmHandoffConsumedOnce(t *testing.T) {
	cold, err := degenerateProgram(rat.One()).SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ws := &WarmStart{Basis: cold.Basis()}
	ctx := WithWarmBasis(context.Background(), ws)
	first, err := degenerateProgram(rat.One()).SolveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Used || first.Phase1Iterations >= cold.Phase1Iterations {
		t.Fatalf("first solve did not consume the handoff: used %v, phase-1 pivots %d (cold %d)",
			ws.Used, first.Phase1Iterations, cold.Phase1Iterations)
	}
	final := ws.Final
	second, err := degenerateProgram(rat.One()).SolveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Phase1Iterations != cold.Phase1Iterations {
		t.Fatalf("second solve spent %d phase-1 pivots, cold %d: it reused a consumed handoff",
			second.Phase1Iterations, cold.Phase1Iterations)
	}
	if ws.Final != final {
		t.Fatal("second solve wrote to a consumed handoff")
	}
}
