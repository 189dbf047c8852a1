package lp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rat"
)

// fuzzValues is the table FuzzLP draws every coefficient, right-hand
// side, objective entry and upper bound from: zero, units, simple
// fractions, and values on both sides of the sparse tableau's word
// boundary — 2³¹−1, whose products overflow a word mid-solve, the prime
// 9223372036854775783 just below 2⁶³, −4611686018427387847 near −2⁶², and
// 1/4294967291, whose denominator scales a whole row.
var fuzzValues = []string{
	"0", "1", "-1", "1/2", "-7/3",
	fmt.Sprint(math.MaxInt32), "9223372036854775783", "-4611686018427387847",
	"1/4294967291",
}

// lpBytes reads a fuzz input one byte at a time; past the end it reads 0.
type lpBytes []byte

func (b *lpBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value draws one entry of fuzzValues.
func (b *lpBytes) value() rat.Rat {
	return rat.MustParse(fuzzValues[int(b.next())%len(fuzzValues)])
}

// decodeLP builds a small LP from fuzz bytes. The first byte picks the
// direction (bit 0: maximize), 1–4 variables and 0–5 rows. Then come one
// objective entry per variable, a byte whose bits put upper bounds on
// variables (one value byte per bound), and the rows. A row starts with a
// byte whose bit 0 repeats the previous row, so redundant rows occur;
// otherwise a coefficient per variable, a sense byte and a right-hand
// side follow.
func decodeLP(data []byte) *Model {
	b := lpBytes(data)
	head := b.next()
	m := NewMinimize()
	if head&1 != 0 {
		m = NewMaximize()
	}
	vars := make([]Var, 1+int(head>>1)%4)
	for j := range vars {
		vars[j] = m.Var(fmt.Sprintf("x%d", j))
		m.SetObjective(vars[j], b.value())
	}
	bounds := b.next()
	for j, v := range vars {
		if bounds&(1<<j) != 0 {
			m.SetUpper(v, b.value())
		}
	}
	var prev *Constraint // the last row decoded
	for i := 0; i < int(head>>3)%6; i++ {
		if b.next()&1 != 0 && prev != nil {
			m.AddConstraint(fmt.Sprintf("c%d", i), prev.Expr, prev.Sense, prev.RHS)
			continue
		}
		e := NewExpr()
		for _, v := range vars {
			e = e.Plus(b.value(), v)
		}
		sense := []Sense{Leq, Eq, Geq}[int(b.next())%3]
		m.AddConstraint(fmt.Sprintf("c%d", i), e, sense, b.value())
		c := m.cons[len(m.cons)-1]
		prev = &c
	}
	return m
}

// FuzzLP is the LP's differential fuzz target: whatever small LP the
// bytes decode to, the sparse tableau and the big.Int-only dense oracle
// must return the same error, or the same pivot counts, objective and
// values (solveBoth), the solution must pass Model.Verify, and the
// objective must evaluate to the reported optimum.
func FuzzLP(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		// max over 2 variables, 2 rows of small coefficients.
		{0x13, 1, 3, 0, 0, 1, 1, 0, 1, 0, 2, 1, 3},
		// min over 4 variables with bounds, 5 rows, one a repeat.
		{0x2e, 5, 6, 7, 8, 0x0f, 1, 2, 3, 4, 0, 5, 6, 7, 8, 2, 1, 1, 0, 1, 2, 3, 4, 1, 6, 0, 7, 5, 6, 2, 0, 3},
		// max over 3 variables: word-boundary coefficients everywhere.
		{0x25, 6, 7, 5, 0x02, 6, 0, 7, 6, 5, 0, 1, 0, 6, 7, 8, 2, 3, 0, 5, 5, 6, 1, 6, 0, 8, 8, 7, 2, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeLP(data)
		sparse, _ := solveBoth(t, m)
		if sparse == nil {
			return
		}
		if got := m.EvalObjective(sparse.Values()); !rat.Eq(got, sparse.Objective) {
			t.Fatalf("objective evaluates to %s, solve reported %s", got.RatString(), sparse.Objective.RatString())
		}
	})
}
