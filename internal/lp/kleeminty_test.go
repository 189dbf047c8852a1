package lp

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/rat"
)

// kleeMinty builds the classic Klee–Minty cube of dimension n:
//
//	max  Σ 2^(n-j)·x_j
//	s.t. 2·Σ_{j<i} 2^(i-j)·x_j + x_i ≤ 5^i   (i = 1..n)
//
// Its optimum is x_n = 5^n (all other x_j = 0) with objective 5^n. Greedy
// pivot rules visit exponentially many vertices on this family, so it
// exercises the solver's pivot loop, the Bland fallback threshold and the
// big-integer row arithmetic far harder than the platform LPs do.
func kleeMinty(n int) (*Model, *big.Int) {
	m := NewMaximize()
	vars := make([]Var, n+1)
	for j := 1; j <= n; j++ {
		vars[j] = m.Var(fmt.Sprintf("x%d", j))
		coeff := new(big.Int).Lsh(big.NewInt(1), uint(n-j)) // 2^(n-j)
		m.SetObjective(vars[j], new(big.Rat).SetInt(coeff))
	}
	five := big.NewInt(5)
	for i := 1; i <= n; i++ {
		e := NewExpr()
		for j := 1; j < i; j++ {
			coeff := new(big.Int).Lsh(big.NewInt(1), uint(i-j+1)) // 2·2^(i-j)
			e = e.Plus(new(big.Rat).SetInt(coeff), vars[j])
		}
		e = e.Plus1(vars[i])
		rhs := new(big.Int).Exp(five, big.NewInt(int64(i)), nil)
		m.AddConstraint(fmt.Sprintf("c%d", i), e, Leq, new(big.Rat).SetInt(rhs))
	}
	want := new(big.Int).Exp(five, big.NewInt(int64(n)), nil)
	return m, want
}

func TestKleeMintyCubes(t *testing.T) {
	for _, n := range []int{3, 5, 8, 10} {
		m, want := kleeMinty(n)
		sol, err := m.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := m.Verify(sol.Values()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sol.Objective.Cmp(new(big.Rat).SetInt(want)) != 0 {
			t.Errorf("n=%d: objective %s, want %s", n, sol.Objective.RatString(), want)
		}
		t.Logf("Klee–Minty n=%d: %d pivots", n, sol.Iterations)
	}
}

func TestKleeMintyPivotGrowth(t *testing.T) {
	// The solver must finish (Dantzig may walk many vertices; Bland's
	// fallback guarantees termination regardless). Sanity-bound the pivot
	// count: the fallback threshold plus the post-switch Bland walk keeps
	// it finite and small for n=12.
	m, want := kleeMinty(12)
	sol, err := m.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective.Cmp(new(big.Rat).SetInt(want)) != 0 {
		t.Errorf("objective %s, want %s", sol.Objective.RatString(), want)
	}
	if sol.Iterations > 1<<13 {
		t.Errorf("pivots = %d, suspiciously many even for Klee–Minty", sol.Iterations)
	}
}

// TestLargeDiagonalLP checks big-integer hygiene: widely varying
// coefficients must not corrupt the exact arithmetic.
func TestLargeDiagonalLP(t *testing.T) {
	m := NewMaximize()
	const n = 12
	total := rat.Zero()
	for i := 0; i < n; i++ {
		v := m.Var(fmt.Sprintf("x%d", i))
		m.SetObjective(v, rat.One())
		// x_i scaled by 10^i: x_i·10^i ≤ 7^i  →  x_i = (7/10)^i.
		scale := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(i)), nil)
		rhs := new(big.Int).Exp(big.NewInt(7), big.NewInt(int64(i)), nil)
		m.AddConstraint(fmt.Sprintf("c%d", i),
			NewExpr().Plus(new(big.Rat).SetInt(scale), v), Leq, new(big.Rat).SetInt(rhs))
		total.Add(total, new(big.Rat).SetFrac(rhs, scale))
	}
	sol, err := m.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rat.Eq(sol.Objective, total) {
		t.Errorf("objective %s, want %s", sol.Objective.RatString(), total.RatString())
	}
}
