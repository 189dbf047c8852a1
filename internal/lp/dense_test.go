package lp

import (
	"context"
	"math/big"

	"repro/internal/rat"
)

// The dense tableau is the reference implementation of the tableau
// interface: it runs the same pivot rules as the sparse production
// tableau over full integer rows. Tests select it through
// WithDenseTableau (export_test.go) and require both tableaus to walk
// bit-identical pivot sequences.

// tableauKind names the tableau a test solve runs on.
type tableauKind string

const (
	sparseKind tableauKind = "sparse" // the production tableau
	denseKind  tableauKind = "dense"  // the reference below
)

// bothKinds lists the production tableau and the reference.
var bothKinds = []tableauKind{sparseKind, denseKind}

// ctx returns a fresh context whose solves run on the named tableau.
func (k tableauKind) ctx() context.Context {
	if k == denseKind {
		return WithDenseTableau(context.Background())
	}
	return context.Background()
}

// row is one dense tableau row: rational entries n[j]/d with a shared
// positive denominator d. Keeping rows as integer vectors makes pivots
// pure big.Int arithmetic (no per-operation gcd as big.Rat would do) and
// lets a pivot skip every row whose pivot-column entry is zero.
type row struct {
	n []*big.Int
	d *big.Int
}

func newRow(cols int) *row {
	r := &row{n: make([]*big.Int, cols), d: big.NewInt(1)}
	for j := range r.n {
		r.n[j] = new(big.Int)
	}
	return r
}

// normalize divides the row through by the gcd of its denominator and all
// entries, keeping numbers small across pivots.
func (r *row) normalize() {
	g := new(big.Int).Set(r.d)
	for _, v := range r.n {
		if v.Sign() == 0 {
			continue
		}
		g.GCD(nil, nil, g, new(big.Int).Abs(v))
		if g.Cmp(bigOne) == 0 {
			return
		}
	}
	r.d.Quo(r.d, g)
	for _, v := range r.n {
		if v.Sign() != 0 {
			v.Quo(v, g)
		}
	}
}

// rational returns entry j as an exact rational.
func (r *row) rational(j int) rat.Rat { return ratFromBigInts(r.n[j], r.d) }

// denseTableau is the dense simplex tableau in solved (basic) form.
// Column layout: structural variables, then slacks, then artificials, then
// the right-hand side as the final column.
type denseTableau struct {
	rows  []*row
	obj   *row  // reduced-cost row: obj.n[j]/obj.d = cB·B⁻¹Aj − cj; rhs = objective value
	basis []int // basis[i] = column basic in row i
	dead  []bool
	rhs   int // index of the rhs column
	// iteration bookkeeping
	pivots     int
	blandAfter int
	bland      bool
}

func newDenseTableau(nCols, blandAfter int) *denseTableau {
	return &denseTableau{
		rhs:        nCols,
		dead:       make([]bool, nCols),
		blandAfter: blandAfter,
	}
}

func (t *denseTableau) addRow(entries []colVal, den *big.Int, basic int) {
	r := newRow(t.rhs + 1)
	for _, e := range entries {
		r.n[e.col].Set(e.num)
	}
	r.d = new(big.Int).Set(den)
	r.normalize()
	t.rows = append(t.rows, r)
	t.basis = append(t.basis, basic)
}

func (t *denseTableau) nRows() int           { return len(t.rows) }
func (t *denseTableau) basic(i int) int      { return t.basis[i] }
func (t *denseTableau) pivotCount() int      { return t.pivots }
func (t *denseTableau) objRHSSign() int      { return t.obj.n[t.rhs].Sign() }
func (t *denseTableau) value(i int) rat.Rat  { return t.rows[i].rational(t.rhs) }
func (t *denseTableau) objValue() rat.Rat    { return t.obj.rational(t.rhs) }
func (t *denseTableau) blandActive() bool    { return t.bland }
func (t *denseTableau) rowRHSSign(i int) int { return t.rows[i].n[t.rhs].Sign() }

func (t *denseTableau) nonzeros() int {
	nnz := 0
	for _, r := range t.rows {
		for _, v := range r.n {
			if v.Sign() != 0 {
				nnz++
			}
		}
	}
	return nnz
}

func (t *denseTableau) resetRule(budget int) {
	t.bland = false
	t.blandAfter = t.pivots + budget
}

func (t *denseTableau) markDead(cols []bool) {
	for j, dead := range cols {
		if dead {
			t.dead[j] = true
		}
	}
}

func (t *denseTableau) firstNonzero(i int, skip []bool) (int, int) {
	r := t.rows[i]
	for j := 0; j < t.rhs; j++ {
		if !skip[j] && r.n[j].Sign() != 0 {
			return j, r.n[j].Sign()
		}
	}
	return -1, 0
}

func (t *denseTableau) negateRow(i int) {
	for _, v := range t.rows[i].n {
		v.Neg(v)
	}
}

func (t *denseTableau) colSign(i, c int) int { return t.rows[i].n[c].Sign() }

func (t *denseTableau) rowLen(i int) int {
	n := 0
	for _, v := range t.rows[i].n {
		if v.Sign() != 0 {
			n++
		}
	}
	return n
}

// dropRow splices row i out with explicit copies. The earlier
// append-based splice (`append(t.rows[:i], t.rows[i+1:]...)`) shifted in
// place but left the dropped row aliased past the new length in the
// backing array — a stale *row kept alive (and, symmetrically in the
// sparse tableau, scratch-buffer-sharing rows kept reachable) for the
// lifetime of the solve. Clearing the vacated tail slot severs the alias.
func (t *denseTableau) dropRow(i int) {
	n := len(t.rows)
	copy(t.rows[i:], t.rows[i+1:])
	t.rows[n-1] = nil
	t.rows = t.rows[:n-1]
	copy(t.basis[i:], t.basis[i+1:])
	t.basis = t.basis[:n-1]
}

func (t *denseTableau) installPhase1(art []bool) {
	w := newRow(t.rhs + 1)
	for j := 0; j < t.rhs; j++ {
		if art[j] {
			w.n[j].SetInt64(1)
		}
	}
	t.obj = w
	for i, b := range t.basis {
		if art[b] {
			// w ← w − (w[b]/1)·row_i normalized: w[b] is 1, the row has
			// row_i[b] = 1 as a rational, so subtract the row in rational
			// form.
			t.eliminateRational(w, t.rows[i], b)
		}
	}
}

func (t *denseTableau) installObjective(entries []colVal, den *big.Int) {
	z := newRow(t.rhs + 1)
	z.d = new(big.Int).Set(den)
	for _, e := range entries {
		z.n[e.col].Set(e.num)
	}
	t.obj = z
	for i, b := range t.basis {
		if z.n[b].Sign() != 0 {
			t.eliminateRational(z, t.rows[i], b)
		}
	}
}

// pivot performs a Gauss-Jordan pivot at (pr, pc). The entry must be
// strictly positive (as a rational).
func (t *denseTableau) pivot(pr, pc int) {
	prow := t.rows[pr]
	p := prow.n[pc] // > 0
	for i, ri := range t.rows {
		if i == pr {
			continue
		}
		t.eliminate(ri, prow, p, pc)
	}
	if t.obj != nil {
		// Warm-basis rebuild pivots run before any objective is installed.
		t.eliminate(t.obj, prow, p, pc)
	}
	// Row pr itself: divide by the pivot, i.e. its denominator becomes the
	// old pivot numerator (entries unchanged).
	prow.d = new(big.Int).Set(p)
	prow.normalize()
	t.basis[pr] = pc
	t.pivots++
}

// eliminate applies ri ← ri − (ri[pc]/p)·prow in row-integer form:
// n'[j] = n[j]·p − n[pc]·prow.n[j], d' = d·p, then renormalizes.
func (t *denseTableau) eliminate(ri, prow *row, p *big.Int, pc int) {
	f := ri.n[pc]
	if f.Sign() == 0 {
		return // row untouched by this pivot
	}
	f = new(big.Int).Set(f) // ri.n[pc] is overwritten below
	var tmp big.Int
	for j, nj := range ri.n {
		pj := prow.n[j]
		switch {
		case pj.Sign() == 0:
			if nj.Sign() != 0 {
				nj.Mul(nj, p)
			}
		case nj.Sign() == 0:
			nj.Mul(f, pj)
			nj.Neg(nj)
		default:
			nj.Mul(nj, p)
			tmp.Mul(f, pj)
			nj.Sub(nj, &tmp)
		}
	}
	ri.d = new(big.Int).Mul(ri.d, p)
	ri.normalize()
}

// entering picks the entering column, or -1 if the tableau is optimal.
// Dantzig's rule (most negative reduced cost) normally; Bland's rule
// (lowest index with negative reduced cost) once cycling is suspected.
func (t *denseTableau) entering() int {
	if !t.bland && t.pivots > t.blandAfter {
		t.bland = true
	}
	best := -1
	for j := 0; j < t.rhs; j++ {
		if t.dead[j] || t.obj.n[j].Sign() >= 0 {
			continue
		}
		if t.bland {
			return j
		}
		// All obj entries share one denominator, so numerators compare.
		if best == -1 || t.obj.n[j].Cmp(t.obj.n[best]) < 0 {
			best = j
		}
	}
	return best
}

// leaving runs the ratio test for entering column c: the feasible basis row
// minimizing rhs_i / a_ic over rows with a_ic > 0. Returns -1 when the
// column is unbounded. Ties break toward the smallest basic column index
// (required by Bland's rule; harmless otherwise).
func (t *denseTableau) leaving(c int) int {
	best := -1
	var bn, bd *big.Int // best ratio = bn/bd, bd > 0
	for i, ri := range t.rows {
		a := ri.n[c]
		if a.Sign() <= 0 {
			continue
		}
		b := ri.n[t.rhs]
		if best == -1 {
			best, bn, bd = i, b, a
			continue
		}
		// compare b/a vs bn/bd  ⇔  b·bd vs bn·a (a, bd > 0)
		l := new(big.Int).Mul(b, bd)
		r := new(big.Int).Mul(bn, a)
		switch l.Cmp(r) {
		case -1:
			best, bn, bd = i, b, a
		case 0:
			if t.basis[i] < t.basis[best] {
				best, bn, bd = i, b, a
			}
		}
	}
	return best
}

// eliminateRational performs z ← z − z[col]·row, where the row is in solved
// form (its col entry equals 1 as a rational, i.e. r.n[col] == r.d). Used
// when (re)installing an objective row over an existing basis:
//
//	z'_j = (z.n[j]·r.d − z.n[col]·r.n[j]) / (z.d·r.d)
func (t *denseTableau) eliminateRational(z *row, r *row, col int) {
	f := new(big.Int).Set(z.n[col])
	if f.Sign() == 0 {
		return
	}
	var tmp big.Int
	for j, nj := range z.n {
		nj.Mul(nj, r.d)
		tmp.Mul(f, r.n[j])
		nj.Sub(nj, &tmp)
	}
	z.d = new(big.Int).Mul(z.d, r.d)
	z.normalize()
}
