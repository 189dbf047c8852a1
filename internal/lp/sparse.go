package lp

import (
	"math/big"

	"repro/internal/rat"
)

// sparseRow is one tableau row stored sparsely: the nonzero integer
// numerators num over the shared positive denominator d, with cols the
// strictly increasing column indices of the numerators. The steady-state
// LPs keep rows short — a one-port or conservation row touches only one
// node's incident variables — and stay sparse across pivots (a few percent
// fill on the composite workloads), so a row update costs O(nnz) big.Int
// operations instead of O(columns). The arithmetic mirrors the dense row
// exactly (fraction-free update, content-gcd normalization), and pivot
// selection depends only on the rational row values, so both
// representations produce identical pivot sequences.
type sparseRow struct {
	cols []int
	num  []*big.Int // parallel to cols; entries are never zero
	d    *big.Int
}

// find returns the position of col in the row, or -1.
func (r *sparseRow) find(col int) int {
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cols[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.cols) && r.cols[lo] == col {
		return lo
	}
	return -1
}

// get returns the numerator at col, or nil when the entry is zero.
func (r *sparseRow) get(col int) *big.Int {
	if i := r.find(col); i >= 0 {
		return r.num[i]
	}
	return nil
}

// sign returns the sign of the entry at col (0 when absent).
func (r *sparseRow) sign(col int) int {
	if n := r.get(col); n != nil {
		return n.Sign()
	}
	return 0
}

// sparseTableau is the sparse simplex tableau — same solved (basic) form
// and column layout as the dense reference tableau (dense_test.go), same
// pivot rules, sparse rows. Row updates run allocation-free through
// tableau-owned scratch buffers and a big.Int pool: the profile of the
// composite workloads is dominated by small-integer multiplies, so
// avoiding per-update garbage is what turns the skipped zero-columns into
// wall-clock speedup over the dense tableau.
type sparseTableau struct {
	rows  []*sparseRow
	obj   *sparseRow
	basis []int
	dead  []bool
	rhs   int // index of the rhs column
	// iteration bookkeeping
	pivots     int
	blandAfter int
	bland      bool
	// scratch state for allocation-free row updates: the merge target
	// slices (swapped with the updated row's), a pool of retired big.Ints
	// (re-used for fill-in entries), and fixed temporaries.
	scratchCols []int
	scratchNum  []*big.Int
	pool        []*big.Int
	fbuf        big.Int // copy of the elimination factor
	tmp         big.Int // product temporary
	gbuf        big.Int // gcd accumulator
	absbuf      big.Int // |entry| scratch for gcd
}

func newSparseTableau(nCols, blandAfter int) *sparseTableau {
	return &sparseTableau{
		rhs:        nCols,
		dead:       make([]bool, nCols),
		blandAfter: blandAfter,
	}
}

// alloc returns a big.Int from the pool (or a fresh one).
func (t *sparseTableau) alloc() *big.Int {
	if n := len(t.pool); n > 0 {
		v := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return v
	}
	return new(big.Int)
}

var bigOne = big.NewInt(1)

// normalizeRow divides the row through by the gcd of its denominator and
// all entries — the same content gcd the dense row computes (zero entries
// are skipped there too), so the normalized rationals agree exactly.
func (t *sparseTableau) normalizeRow(r *sparseRow) {
	if r.d.Cmp(bigOne) == 0 {
		return // g = gcd(1, …) = 1: nothing to divide out
	}
	g := t.gbuf.Set(r.d)
	for _, v := range r.num {
		t.absbuf.Abs(v)
		g.GCD(nil, nil, g, &t.absbuf)
		if g.Cmp(bigOne) == 0 {
			return
		}
	}
	r.d.Quo(r.d, g)
	for _, v := range r.num {
		v.Quo(v, g)
	}
}

// combine applies r ← (r·p − f·prow) / (d·p), the shared shape of both
// dense eliminations (pivot elimination uses the pivot numerator as p;
// objective installation over a solved row uses the row's denominator).
// The merge walks both sorted column lists once, mutating r's big.Ints in
// place, drawing fill-in entries from the pool and retiring entries that
// cancel to zero, and swaps r's slices with the tableau scratch so steady
// state allocates nothing.
func (t *sparseTableau) combine(r, prow *sparseRow, p, f *big.Int) {
	if f == nil || f.Sign() == 0 {
		return
	}
	t.fbuf.Set(f) // f may alias an entry of r mutated below
	f = &t.fbuf
	pOne := p.Cmp(bigOne) == 0 // unit pivots (common here) skip the scaling
	cols := t.scratchCols[:0]
	num := t.scratchNum[:0]
	i, j := 0, 0
	for i < len(r.cols) || j < len(prow.cols) {
		switch {
		case j >= len(prow.cols) || (i < len(r.cols) && r.cols[i] < prow.cols[j]):
			n := r.num[i]
			if !pOne {
				n.Mul(n, p)
			}
			cols = append(cols, r.cols[i])
			num = append(num, n)
			i++
		case i >= len(r.cols) || prow.cols[j] < r.cols[i]:
			n := t.alloc().Mul(f, prow.num[j])
			n.Neg(n)
			cols = append(cols, prow.cols[j])
			num = append(num, n)
			j++
		default:
			n := r.num[i]
			if !pOne {
				n.Mul(n, p)
			}
			t.tmp.Mul(f, prow.num[j])
			n.Sub(n, &t.tmp)
			if n.Sign() != 0 {
				cols = append(cols, r.cols[i])
				num = append(num, n)
			} else {
				t.pool = append(t.pool, n)
			}
			i++
			j++
		}
	}
	// r adopts the merged slices; its old backing arrays become the next
	// scratch (their big.Ints were all moved or retired above).
	t.scratchCols, r.cols = r.cols[:0], cols
	t.scratchNum, r.num = r.num[:0], num
	if !pOne {
		r.d.Mul(r.d, p)
	}
	t.normalizeRow(r)
}

func (t *sparseTableau) addRow(entries []colVal, den *big.Int, basic int) {
	r := &sparseRow{d: new(big.Int).Set(den)}
	for _, e := range entries {
		if e.num.Sign() == 0 {
			continue
		}
		r.cols = append(r.cols, e.col)
		r.num = append(r.num, new(big.Int).Set(e.num))
	}
	t.normalizeRow(r)
	t.rows = append(t.rows, r)
	t.basis = append(t.basis, basic)
}

func (t *sparseTableau) nRows() int           { return len(t.rows) }
func (t *sparseTableau) basic(i int) int      { return t.basis[i] }
func (t *sparseTableau) pivotCount() int      { return t.pivots }
func (t *sparseTableau) objRHSSign() int      { return t.obj.sign(t.rhs) }
func (t *sparseTableau) objValue() rat.Rat    { return t.rational(t.obj, t.rhs) }
func (t *sparseTableau) value(i int) rat.Rat  { return t.rational(t.rows[i], t.rhs) }
func (t *sparseTableau) blandActive() bool    { return t.bland }
func (t *sparseTableau) rowRHSSign(i int) int { return t.rows[i].sign(t.rhs) }

// nonzeros counts stored entries; sparse rows never hold zeros and both
// implementations normalize identically, so this equals the dense scan.
func (t *sparseTableau) nonzeros() int {
	nnz := 0
	for _, r := range t.rows {
		nnz += len(r.num)
	}
	return nnz
}

// rational reads entry col of r as an exact rational.
func (t *sparseTableau) rational(r *sparseRow, col int) rat.Rat {
	n := r.get(col)
	if n == nil {
		return rat.Zero()
	}
	return ratFromBigInts(n, r.d)
}

func (t *sparseTableau) resetRule(budget int) {
	t.bland = false
	t.blandAfter = t.pivots + budget
}

func (t *sparseTableau) markDead(cols []bool) {
	for j, dead := range cols {
		if dead {
			t.dead[j] = true
		}
	}
}

func (t *sparseTableau) firstNonzero(i int, skip []bool) (int, int) {
	r := t.rows[i]
	for k, col := range r.cols {
		if col >= t.rhs {
			break
		}
		if !skip[col] {
			return col, r.num[k].Sign()
		}
	}
	return -1, 0
}

func (t *sparseTableau) negateRow(i int) {
	for _, v := range t.rows[i].num {
		v.Neg(v)
	}
}

func (t *sparseTableau) colSign(i, c int) int { return t.rows[i].sign(c) }
func (t *sparseTableau) rowLen(i int) int     { return len(t.rows[i].num) }

// dropRow splices row i out with explicit copies. The earlier
// append-based splice left the dropped *sparseRow aliased past the new
// length of the backing array, keeping its column/numerator slices (which
// rotate through the tableau's scratch buffers via combine's swaps)
// reachable for the rest of the solve. Clearing the vacated tail slot
// severs the alias; the regression test pins solve → drop → re-pivot.
func (t *sparseTableau) dropRow(i int) {
	n := len(t.rows)
	copy(t.rows[i:], t.rows[i+1:])
	t.rows[n-1] = nil
	t.rows = t.rows[:n-1]
	copy(t.basis[i:], t.basis[i+1:])
	t.basis = t.basis[:n-1]
}

func (t *sparseTableau) installPhase1(art []bool) {
	w := &sparseRow{d: big.NewInt(1)}
	for j := 0; j < t.rhs; j++ {
		if art[j] {
			w.cols = append(w.cols, j)
			w.num = append(w.num, big.NewInt(1))
		}
	}
	t.obj = w
	for i, b := range t.basis {
		if art[b] {
			// w ← w − w[b]·row_i in rational form; the row is solved for b
			// (row_i[b]/row_i.d == 1), so p is the row's denominator.
			t.combine(w, t.rows[i], t.rows[i].d, w.get(b))
		}
	}
}

func (t *sparseTableau) installObjective(entries []colVal, den *big.Int) {
	z := &sparseRow{d: new(big.Int).Set(den)}
	for _, e := range entries {
		if e.num.Sign() == 0 {
			continue
		}
		z.cols = append(z.cols, e.col)
		z.num = append(z.num, new(big.Int).Set(e.num))
	}
	t.obj = z
	for i, b := range t.basis {
		t.combine(z, t.rows[i], t.rows[i].d, z.get(b))
	}
}

// pivot performs a Gauss-Jordan pivot at (pr, pc); the entry must be
// strictly positive. Rows without an entry in the pivot column are
// untouched, which the sparse lookup makes O(log nnz) to discover.
func (t *sparseTableau) pivot(pr, pc int) {
	prow := t.rows[pr]
	p := new(big.Int).Set(prow.get(pc)) // > 0; copied before rows mutate
	for i, ri := range t.rows {
		if i == pr {
			continue
		}
		t.combine(ri, prow, p, ri.get(pc))
	}
	if t.obj != nil {
		// Warm-basis rebuild pivots run before any objective is installed.
		t.combine(t.obj, prow, p, t.obj.get(pc))
	}
	// Row pr itself: divide by the pivot, i.e. its denominator becomes the
	// old pivot numerator (entries unchanged).
	prow.d = p
	t.normalizeRow(prow)
	t.basis[pr] = pc
	t.pivots++
}

// entering picks the entering column, or -1 at optimality — Dantzig's
// rule, falling back to Bland's once cycling is suspected, iterating only
// the objective row's nonzero entries (zero reduced costs are never
// negative, so skipping them picks the same column the dense scan does).
func (t *sparseTableau) entering() int {
	if !t.bland && t.pivots > t.blandAfter {
		t.bland = true
	}
	best := -1
	var bestNum *big.Int
	for k, col := range t.obj.cols {
		if col >= t.rhs {
			break
		}
		if t.dead[col] || t.obj.num[k].Sign() >= 0 {
			continue
		}
		if t.bland {
			return col
		}
		// All obj entries share one denominator, so numerators compare.
		if best == -1 || t.obj.num[k].Cmp(bestNum) < 0 {
			best, bestNum = col, t.obj.num[k]
		}
	}
	return best
}

var bigZero = new(big.Int)

// leaving runs the ratio test for entering column c — identical rule and
// tie-breaking to the dense implementation.
func (t *sparseTableau) leaving(c int) int {
	best := -1
	var bn, bd *big.Int // best ratio = bn/bd, bd > 0
	var l, r big.Int
	for i, ri := range t.rows {
		a := ri.get(c)
		if a == nil || a.Sign() <= 0 {
			continue
		}
		b := ri.get(t.rhs)
		if b == nil {
			b = bigZero
		}
		if best == -1 {
			best, bn, bd = i, b, a
			continue
		}
		// compare b/a vs bn/bd  ⇔  b·bd vs bn·a (a, bd > 0)
		l.Mul(b, bd)
		r.Mul(bn, a)
		switch l.Cmp(&r) {
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
