package lp

import (
	"fmt"
	"math"
	"math/big"
	"slices"
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
	return b.lp()
}

// lp decodes an LP as decodeLP does, leaving the bytes after it unread.
func (b *lpBytes) lp() *Model {
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

// scale draws a positive value: the magnitude of a value of fuzzValues,
// or 1 in place of 0.
func (b *lpBytes) scale() rat.Rat {
	v := b.value()
	if v.Sign() == 0 {
		return rat.One()
	}
	return v.Abs(v)
}

// scaledBounds returns a copy of m with every right-hand side and upper
// bound multiplied by s > 0: the same structure, so m's bases fit it, and
// the feasible region scaled by s, so m's optimal basis is optimal for it.
func scaledBounds(m *Model, s rat.Rat) *Model {
	c := newModel(m.maximize)
	for _, name := range m.names {
		c.Var(name)
	}
	for v, coeff := range m.obj {
		c.SetObjective(v, coeff)
	}
	for v, u := range m.upper {
		if u != nil {
			c.SetUpper(Var(v), rat.Mul(u, s))
		}
	}
	for _, con := range m.cons {
		c.AddConstraint(con.Name, con.Expr, con.Sense, rat.Mul(con.RHS, s))
	}
	return c
}

// fuzzLPSeeds is FuzzLP's seed corpus.
var fuzzLPSeeds = [][]byte{
	{},
	// max over 2 variables, 2 rows of small coefficients.
	{0x13, 1, 3, 0, 0, 1, 1, 0, 1, 0, 2, 1, 3},
	// min over 4 variables with bounds, 5 rows, one a repeat.
	{0x2e, 5, 6, 7, 8, 0x0f, 1, 2, 3, 4, 0, 5, 6, 7, 8, 2, 1, 1, 0, 1, 2, 3, 4, 1, 6, 0, 7, 5, 6, 2, 0, 3},
	// max over 3 variables: word-boundary coefficients everywhere.
	{0x25, 6, 7, 5, 0x02, 6, 0, 7, 6, 5, 0, 1, 0, 6, 7, 8, 2, 3, 0, 5, 5, 6, 1, 6, 0, 8, 8, 7, 2, 5},
	// max x0 + x1 subject to x0 + x1 = 1 twice and x0 ≤ 1/2: the drive-out
	// drops the redundant equality row, and the row after it moves up.
	{0x1b, 1, 1, 0x00, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 3},
	// A ratio test that must settle a deferred row, and a drive-out that
	// drops a row while another is deferred (lockstep_test.go).
	settleInLeavingSeed,
	dropWhileStaleSeed,
}

// FuzzLP is the LP's differential fuzz target: whatever small LP the
// bytes decode to, the sparse tableau and the big.Int-only dense oracle
// must return the same error, or the same pivot counts, objective, values
// and final basis (solveBoth), the solution must pass Model.Verify, and
// the objective must evaluate to the reported optimum. An LP with an
// optimum is then solved warm, again on both tableaus, from its optimal
// basis twice: as it is, where the basis must be used and give the same
// optimum, and the same values unless phase 2 pivots; and with every
// right-hand side and upper bound scaled by a positive value drawn from
// the bytes after the LP, where the optimum must be the scaled copy's
// cold one.
func FuzzLP(f *testing.F) {
	for _, seed := range fuzzLPSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := lpBytes(data)
		m := b.lp()
		sparse, _ := solveBoth(t, m)
		if sparse == nil {
			return
		}
		if got := m.EvalObjective(sparse.Values()); !rat.Eq(got, sparse.Objective) {
			t.Fatalf("objective evaluates to %s, solve reported %s", got.RatString(), sparse.Objective.RatString())
		}

		m.StartFrom(sparse.Basis())
		warm, _ := solveBoth(t, m)
		switch {
		case warm == nil:
			t.Fatal("warm re-solve from the optimal basis failed")
		case !warm.WarmUsed:
			t.Fatalf("warm re-solve rejected its own optimal basis: %s", warm.WarmReject)
		case !rat.Eq(warm.Objective, sparse.Objective):
			t.Fatalf("warm re-solve: objective %s, cold %s", warm.Objective.RatString(), sparse.Objective.RatString())
		case warm.Iterations == warm.Phase1Iterations:
			for v, x := range warm.Values() {
				if !rat.Eq(x, sparse.Values()[v]) {
					t.Fatalf("warm re-solve without a phase-2 pivot: %s = %s, cold %s",
						m.names[v], x.RatString(), sparse.Values()[v].RatString())
				}
			}
		}

		s := b.scale()
		scaled := scaledBounds(m, s)
		cold, _ := solveBoth(t, scaled)
		scaled.StartFrom(sparse.Basis())
		warm, _ = solveBoth(t, scaled)
		if cold == nil || warm == nil {
			t.Fatalf("bounds scaled by %s: cold %v, warm %v: an optimum scales", s.RatString(), cold != nil, warm != nil)
		}
		if !rat.Eq(warm.Objective, cold.Objective) {
			t.Fatalf("bounds scaled by %s: warm objective %s, cold %s", s.RatString(),
				warm.Objective.RatString(), cold.Objective.RatString())
		}
	})
}

// combineValues is the table FuzzCombine draws row numerators from: units,
// small primes, and values near ±2⁶³ whose products with the pivot row
// overflow a word. None is zero or math.MinInt64, as in a word row.
var combineValues = []int64{
	1, -1, 2, -3, 5, -7, 11, 13,
	math.MaxInt32, -math.MaxInt32, 1 << 62, -(1 << 62),
	math.MaxInt64, -math.MaxInt64, 9223372036854775783, -4611686018427387847,
}

// combineDens is the table FuzzCombine draws row denominators from.
var combineDens = []int64{1, 1, 2, 6, 35, math.MaxInt32, 9223372036854775783}

// decodeCombine builds the operands of a unit-pivot row update from fuzz
// bytes: a word row r, a word pivot row whose entry in the pivot column
// is 1, and f, r's entry there. The first byte picks the pivot column
// among 12 and r's denominator, the second the pivot row's denominator.
// Then one byte per column puts an entry in r, in the pivot row or in
// both (always both in the pivot column), and one byte per entry draws
// its value; a shared column whose r byte has the high bit set holds f·q
// when that fits, so the update cancels it.
func decodeCombine(data []byte) (r, prow *sparseRow, f int64) {
	b := lpBytes(data)
	head := b.next()
	pc := int(head) % 12
	r = &sparseRow{wd: combineDens[int(head>>4)%len(combineDens)]}
	prow = &sparseRow{wd: combineDens[int(b.next())%len(combineDens)]}
	f = combineValues[int(b.next())%len(combineValues)]
	for col := 0; col < 12; col++ {
		in := b.next() % 4
		if col == pc {
			in = 3
		}
		var q int64
		if in&2 != 0 {
			q = 1
			if col != pc {
				q = combineValues[int(b.next())%len(combineValues)]
			}
			prow.cols, prow.w = append(prow.cols, col), append(prow.w, q)
		}
		if in&1 != 0 {
			v := f
			if col != pc {
				c := b.next()
				v = combineValues[int(c)%len(combineValues)]
				if fq := mul(f, q); c&0x80 != 0 && q != 0 && fq.hi == 0 && fq.lo <= math.MaxInt64 {
					v = fq.word()
				}
			}
			r.cols, r.w = append(r.cols, col), append(r.w, v)
		}
	}
	return r, prow, f
}

// cloneRow returns a deep copy of r.
func cloneRow(r *sparseRow) *sparseRow {
	c := &sparseRow{cols: slices.Clone(r.cols), wide: r.wide, stale: r.stale, w: slices.Clone(r.w), wd: r.wd}
	if r.wide {
		c.d = new(big.Int).Set(r.d)
		for _, v := range r.num {
			c.num = append(c.num, new(big.Int).Set(v))
		}
	}
	return c
}

// sameWordRow reports whether two rows are the same word row: columns,
// numerators, denominator and form.
func sameWordRow(a, b *sparseRow) bool {
	return !a.wide && !b.wide && a.wd == b.wd && slices.Equal(a.cols, b.cols) && slices.Equal(a.w, b.w)
}

// FuzzCombine is the differential fuzz target of the unit-pivot row
// update: whatever rows the bytes decode to, combineUnit must either
// leave r exactly as the general merge (combineWords with p = 1) leaves
// it, or decline and leave r untouched — and it may decline only when a
// changed value r − f·q needs more than 63 bits.
func FuzzCombine(f *testing.F) {
	for _, seed := range [][]byte{
		// Small values over a denominator of 6, fill-in and shared columns.
		{0x32, 3, 2, 1, 3, 4, 2, 5, 3, 1, 2, 6, 0, 3, 0x81, 2, 7},
		// Near-2⁶³ entries: one cancels exactly, one lands near 2⁶³.
		{0x05, 1, 1, 3, 12, 13, 2, 14, 1, 3, 15, 2, 3, 9, 0x80, 2, 12},
		// Every column shared, every r entry but one cancelling.
		{0x60, 0, 4, 3, 2, 0x80, 3, 3, 0x80, 3, 5, 0x80, 3, 7, 0x80, 3, 1, 0x80, 3, 2, 0x80},
		// Fill-in −2·(2⁶³−1) needs 64 bits: the update declines.
		{0x00, 0, 2, 0, 2, 12, 1, 4},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, prow, fv := decodeCombine(data)
		fast, merged := cloneRow(r), cloneRow(r)
		if !newSparseTableau(12).combineUnit(fast, prow, fv) {
			if !sameWordRow(fast, r) {
				t.Fatalf("combineUnit declined but changed r: %+v, was %+v", fast, r)
			}
			wide := false
			for j, col := range prow.cols {
				v := new(big.Int).Mul(big.NewInt(fv), big.NewInt(prow.w[j]))
				v.Neg(v)
				if k, ok := slices.BinarySearch(r.cols, col); ok {
					v.Add(v, big.NewInt(r.w[k]))
				}
				wide = wide || !v.IsInt64() || v.Int64() == math.MinInt64
			}
			if !wide {
				t.Fatalf("combineUnit declined an update whose changed values all fit a word: r %+v, prow %+v, f %d", r, prow, fv)
			}
			return
		}
		if !newSparseTableau(12).combineWords(merged, prow, 1, fv) {
			t.Fatalf("combineUnit committed %+v where the general merge declines: r %+v, prow %+v, f %d", fast, r, prow, fv)
		}
		if !sameWordRow(fast, merged) {
			t.Fatalf("combineUnit = %+v, general merge = %+v: r %+v, prow %+v, f %d", fast, merged, r, prow, fv)
		}
	})
}
