package lp

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/rat"
)

// sparseRow is one tableau row stored sparsely: the nonzero integer
// numerators over one shared positive denominator, with cols the strictly
// increasing column indices of the numerators. The steady-state LPs keep
// rows short — a one-port or conservation row touches only one node's
// incident variables — and stay sparse across pivots (a few percent fill
// on the composite workloads), so a row update costs O(nnz) instead of
// O(columns). The arithmetic mirrors the dense row exactly (fraction-free
// update, content-gcd normalization), and pivot selection depends only on
// the rational row values, so both representations produce identical
// pivot sequences.
//
// A row holds its numbers in one of two forms. In word form the
// numerators are w over the denominator wd, all int64; in wide form
// (wide set) they are num over d, all big.Int. The form is a function of
// the row's normalized values, never of its history: a row is in word
// form exactly when its denominator and every numerator have magnitude at
// most 2⁶³−1. math.MinInt64 is therefore never stored, and negating a
// word row cannot overflow.
type sparseRow struct {
	cols []int
	wide bool
	w    []int64    // word form: parallel to cols; entries are never zero
	wd   int64      // word form: the denominator, > 0
	num  []*big.Int // wide form: parallel to cols; entries are never zero
	d    *big.Int   // wide form: the denominator, > 0
}

// scalar is one number read out of a row: the word w when big is nil
// (the row is in word form), else big. The zero scalar is an absent entry.
type scalar struct {
	w   int64
	big *big.Int
}

func (s scalar) sign() int {
	if s.big != nil {
		return s.big.Sign()
	}
	switch {
	case s.w > 0:
		return 1
	case s.w < 0:
		return -1
	}
	return 0
}

// toBig returns s as a big.Int, storing a word into buf.
func (s scalar) toBig(buf *big.Int) *big.Int {
	if s.big != nil {
		return s.big
	}
	return buf.SetInt64(s.w)
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

// at returns the numerator at position k.
func (r *sparseRow) at(k int) scalar {
	if r.wide {
		return scalar{big: r.num[k]}
	}
	return scalar{w: r.w[k]}
}

// get returns the numerator at col, or the zero scalar when the entry is
// zero.
func (r *sparseRow) get(col int) scalar {
	if k := r.find(col); k >= 0 {
		return r.at(k)
	}
	return scalar{}
}

// den returns the row's denominator.
func (r *sparseRow) den() scalar {
	if r.wide {
		return scalar{big: r.d}
	}
	return scalar{w: r.wd}
}

// sign returns the sign of the entry at col (0 when absent).
func (r *sparseRow) sign(col int) int { return r.get(col).sign() }

// signAt returns the sign of the numerator at position k.
func (r *sparseRow) signAt(k int) int {
	if r.wide {
		return r.num[k].Sign()
	}
	if r.w[k] < 0 {
		return -1
	}
	return 1
}

// less reports whether the numerator at position k is below the one at
// position j. All entries share the denominator, so numerators compare.
func (r *sparseRow) less(k, j int) bool {
	if r.wide {
		return r.num[k].Cmp(r.num[j]) < 0
	}
	return r.w[k] < r.w[j]
}

// sparseTableau is the sparse simplex tableau — same solved (basic) form
// and column layout as the dense reference tableau (dense_test.go), same
// pivot rules, sparse rows. Rows are in word form whenever their values
// fit, so most updates run in machine words with 128-bit intermediates;
// a row whose values do not fit runs the big.Int update instead, one row
// at a time. Row updates run allocation-free through tableau-owned
// scratch buffers and a big.Int pool, so the skipped zero-columns turn
// into wall-clock speedup over the dense tableau.
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
	// slices (swapped with the updated row's), the unnormalized values of
	// a word update, a pool of retired big.Ints (re-used for fill-in and
	// widened entries), and fixed temporaries.
	scratchCols []int
	scratchW    []int64
	scratchNum  []*big.Int
	scratchMag  []mag128
	pool        []*big.Int
	fbuf        big.Int    // copy of the elimination factor
	pbuf        big.Int    // word pivot as a big.Int
	qbuf        big.Int    // word pivot-row entry as a big.Int
	tmp         big.Int    // product temporary
	gbuf        big.Int    // gcd accumulator
	absbuf      big.Int    // |entry| scratch for gcd
	cross       [6]big.Int // ratio-test operands and products
	// escapes counts updates of two word rows whose result did not fit a
	// word and reran in big.Int; narrows counts wide rows that returned to
	// word form. Only tests read them.
	escapes int
	narrows int
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

// normalizeWide divides a wide row through by the gcd of its denominator
// and all entries — the same content gcd the dense row computes (zero
// entries are skipped there too), so the normalized rationals agree
// exactly.
func (t *sparseTableau) normalizeWide(r *sparseRow) {
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

// normalizeWords is normalizeWide for a word row, in word gcds.
func normalizeWords(r *sparseRow) {
	if r.wd == 1 {
		return
	}
	g := uint64(r.wd)
	for _, v := range r.w {
		if g = gcd64(g, absU(v)); g == 1 {
			return
		}
	}
	gi := int64(g)
	r.wd /= gi
	for k := range r.w {
		r.w[k] /= gi
	}
}

// fitsWord reports whether v may be stored in a word row.
func fitsWord(v *big.Int) bool { return v.IsInt64() && v.Int64() != math.MinInt64 }

// widen converts a word row to wide form.
func (t *sparseTableau) widen(r *sparseRow) {
	num := r.num[:0]
	for _, v := range r.w {
		num = append(num, t.alloc().SetInt64(v))
	}
	r.num, r.w = num, r.w[:0]
	r.d = t.alloc().SetInt64(r.wd)
	r.wide = true
}

// narrow converts a wide row to word form when all its values fit,
// returning its big.Ints to the pool.
func (t *sparseTableau) narrow(r *sparseRow) {
	if !fitsWord(r.d) {
		return
	}
	for _, v := range r.num {
		if !fitsWord(v) {
			return
		}
	}
	w := r.w[:0]
	for _, v := range r.num {
		w = append(w, v.Int64())
	}
	r.wd = r.d.Int64()
	t.pool = append(append(t.pool, r.num...), r.d)
	r.w, r.num, r.d, r.wide = w, r.num[:0], nil, false
	t.narrows++
}

// combine applies r ← (r·p − f·prow) / (d·p), the shared shape of both
// dense eliminations (pivot elimination uses the pivot numerator as p;
// objective installation over a solved row uses the row's denominator),
// where f is r's entry in the eliminated column. When both rows are in
// word form the update runs in words (combineWords); when either row is
// wide, or the word result does not fit, the big.Int update runs for r
// alone (combineWide). Both normalize by the content gcd, so r ends with
// the same values, and in the same form, whichever code computed it.
func (t *sparseTableau) combine(r, prow *sparseRow, p, f scalar) {
	if f.sign() == 0 {
		return
	}
	if !r.wide && !prow.wide {
		if t.combineWords(r, prow, p.w, f.w) {
			return
		}
		t.escapes++
	}
	t.combineWide(r, prow, p, f)
}

// combineWords is combine over two word rows. The merge walks both
// sorted column lists once and forms every r·p − f·q and d·p exactly in
// sign-magnitude 128-bit words, then divides by their content gcd.
// Values that fit a word before normalization (nearly all) go straight
// to the output, folding into the gcd as they pass; from the first one
// that does not, the rest of the update keeps its values in 128 bits.
// The result is committed, swapping r's slices with the tableau scratch
// so steady state allocates nothing, only when every normalized value
// fits a word; otherwise combineWords reports false and leaves r
// untouched.
func (t *sparseTableau) combineWords(r, prow *sparseRow, p, f int64) bool {
	pOne := p == 1 // unit pivots (common here) skip the scaling
	d := wordMag(r.wd)
	if !pOne {
		d = mul(r.wd, p)
	}
	var g uint64 // gcd of d, when it fits a word, and the values in w
	if d.hi == 0 {
		g = d.lo
	}
	cols := t.scratchCols[:0]
	w := t.scratchW[:0]
	var mags []mag128 // the values in 128 bits, once one needs them
	i, j := 0, 0
	for i < len(r.cols) || j < len(prow.cols) {
		var m mag128
		var col int
		switch {
		case j >= len(prow.cols) || (i < len(r.cols) && r.cols[i] < prow.cols[j]):
			col = r.cols[i]
			if pOne {
				m = wordMag(r.w[i])
			} else {
				m = mul(r.w[i], p)
			}
			i++
		case i >= len(r.cols) || prow.cols[j] < r.cols[i]:
			col = prow.cols[j]
			m = mul(f, prow.w[j])
			m.neg = !m.neg // −f·q, never zero
			j++
		default:
			col = r.cols[i]
			if pOne {
				m = wordMag(r.w[i])
			} else {
				m = mul(r.w[i], p)
			}
			m = m.sub(mul(f, prow.w[j]))
			i++
			j++
			if m.isZero() {
				continue
			}
		}
		cols = append(cols, col)
		switch {
		case mags != nil:
			mags = append(mags, m)
		case m.hi != 0 || m.lo > math.MaxInt64:
			mags = t.scratchMag[:0]
			for _, v := range w {
				mags = append(mags, wordMag(v))
			}
			mags = append(mags, m)
		default:
			if g != 1 {
				g = gcd64(g, m.lo)
			}
			w = append(w, m.word())
		}
	}
	t.scratchCols, t.scratchW = cols, w
	if mags != nil {
		t.scratchMag = mags
		g = contentGCD(d, mags)
	} else if d.hi != 0 && g != 0 {
		g = gcd64(g, bits.Rem64(d.hi, d.lo, g))
	}
	if g == 0 {
		return false // no value fits a word to seed the gcd
	}
	wd, ok := d.quoWord(g)
	if !ok {
		return false
	}
	if mags != nil {
		w = w[:0]
		for _, m := range mags {
			v, ok := m.quoWord(g)
			if !ok {
				t.scratchW = w
				return false
			}
			w = append(w, v)
		}
	} else if g != 1 {
		for k := range w {
			w[k] /= int64(g)
		}
	}
	t.scratchCols, r.cols = r.cols[:0], cols
	t.scratchW, r.w = r.w[:0], w
	r.wd = wd
	return true
}

// combineWide is combine in big.Int arithmetic, for r alone: a word r is
// widened first, and narrows back afterwards when its normalized values
// fit. The merge mutates r's big.Ints in place, draws fill-in entries
// from the pool and retires entries that cancel to zero.
func (t *sparseTableau) combineWide(r, prow *sparseRow, p, f scalar) {
	fb := t.fbuf.Set(f.toBig(&t.fbuf)) // f may alias an entry of r mutated below
	pb := p.toBig(&t.pbuf)
	if !r.wide {
		t.widen(r)
	}
	pOne := pb.Cmp(bigOne) == 0 // unit pivots (common here) skip the scaling
	cols := t.scratchCols[:0]
	num := t.scratchNum[:0]
	i, j := 0, 0
	for i < len(r.cols) || j < len(prow.cols) {
		switch {
		case j >= len(prow.cols) || (i < len(r.cols) && r.cols[i] < prow.cols[j]):
			n := r.num[i]
			if !pOne {
				n.Mul(n, pb)
			}
			cols = append(cols, r.cols[i])
			num = append(num, n)
			i++
		case i >= len(r.cols) || prow.cols[j] < r.cols[i]:
			n := t.alloc().Mul(fb, prow.at(j).toBig(&t.qbuf))
			n.Neg(n)
			cols = append(cols, prow.cols[j])
			num = append(num, n)
			j++
		default:
			n := r.num[i]
			if !pOne {
				n.Mul(n, pb)
			}
			t.tmp.Mul(fb, prow.at(j).toBig(&t.qbuf))
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
		r.d.Mul(r.d, pb)
	}
	t.normalizeWide(r)
	t.narrow(r)
}

// loadRow builds a row from sorted entries over den, in word form when
// the normalized values fit.
func (t *sparseTableau) loadRow(entries []colVal, den *big.Int) *sparseRow {
	r := &sparseRow{}
	fits := fitsWord(den)
	for _, e := range entries {
		if e.num.Sign() != 0 {
			r.cols = append(r.cols, e.col)
			fits = fits && fitsWord(e.num)
		}
	}
	if fits {
		r.wd = den.Int64()
		for _, e := range entries {
			if e.num.Sign() != 0 {
				r.w = append(r.w, e.num.Int64())
			}
		}
		normalizeWords(r)
		return r
	}
	r.wide, r.d = true, new(big.Int).Set(den)
	for _, e := range entries {
		if e.num.Sign() != 0 {
			r.num = append(r.num, new(big.Int).Set(e.num))
		}
	}
	t.normalizeWide(r)
	t.narrow(r)
	return r
}

func (t *sparseTableau) addRow(entries []colVal, den *big.Int, basic int) {
	t.rows = append(t.rows, t.loadRow(entries, den))
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
		nnz += len(r.cols)
	}
	return nnz
}

// rational reads entry col of r as an exact rational.
func (t *sparseTableau) rational(r *sparseRow, col int) rat.Rat {
	n := r.get(col)
	switch {
	case n.sign() == 0:
		return rat.Zero()
	case r.wide:
		return ratFromBigInts(n.big, r.d)
	}
	return new(big.Rat).SetFrac64(n.w, r.wd)
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
			return col, r.signAt(k)
		}
	}
	return -1, 0
}

func (t *sparseTableau) negateRow(i int) {
	r := t.rows[i]
	if r.wide {
		for _, v := range r.num {
			v.Neg(v)
		}
		return
	}
	for k, v := range r.w {
		r.w[k] = -v // never math.MinInt64, so never overflows
	}
}

func (t *sparseTableau) colSign(i, c int) int { return t.rows[i].sign(c) }
func (t *sparseTableau) rowLen(i int) int     { return len(t.rows[i].cols) }

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
	w := &sparseRow{wd: 1}
	for j := 0; j < t.rhs; j++ {
		if art[j] {
			w.cols = append(w.cols, j)
			w.w = append(w.w, 1)
		}
	}
	t.obj = w
	for i, b := range t.basis {
		if art[b] {
			// w ← w − w[b]·row_i in rational form; the row is solved for b
			// (row_i[b]/row_i.d == 1), so p is the row's denominator.
			t.combine(w, t.rows[i], t.rows[i].den(), w.get(b))
		}
	}
}

func (t *sparseTableau) installObjective(entries []colVal, den *big.Int) {
	z := t.loadRow(entries, den)
	t.obj = z
	for i, b := range t.basis {
		t.combine(z, t.rows[i], t.rows[i].den(), z.get(b))
	}
}

// pivot performs a Gauss-Jordan pivot at (pr, pc); the entry must be
// strictly positive. Rows without an entry in the pivot column are
// untouched, which the sparse lookup makes O(log nnz) to discover.
func (t *sparseTableau) pivot(pr, pc int) {
	prow := t.rows[pr]
	p := prow.get(pc) // > 0
	if p.big != nil {
		p.big = t.alloc().Set(p.big) // becomes the row's denominator below
	}
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
	if prow.wide {
		t.pool = append(t.pool, prow.d)
		prow.d = p.big
		t.normalizeWide(prow)
		t.narrow(prow)
	} else {
		prow.wd = p.w
		normalizeWords(prow)
	}
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
	obj := t.obj
	best, bestK := -1, 0
	for k, col := range obj.cols {
		if col >= t.rhs {
			break
		}
		if t.dead[col] || obj.signAt(k) >= 0 {
			continue
		}
		if t.bland {
			return col
		}
		if best == -1 || obj.less(k, bestK) {
			best, bestK = col, k
		}
	}
	return best
}

// leaving runs the ratio test for entering column c — identical rule and
// tie-breaking to the dense implementation.
func (t *sparseTableau) leaving(c int) int {
	best := -1
	var bn, bd scalar // best ratio = bn/bd, bd > 0
	for i, ri := range t.rows {
		a := ri.get(c)
		if a.sign() <= 0 {
			continue
		}
		b := ri.get(t.rhs)
		if best == -1 {
			best, bn, bd = i, b, a
			continue
		}
		// compare b/a vs bn/bd  ⇔  b·bd vs bn·a (a, bd > 0)
		switch t.cmpCross(b, bd, bn, a) {
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

// cmpCross returns the sign of x·y − u·v: in 128-bit words when all four
// are words, else in big.Int.
func (t *sparseTableau) cmpCross(x, y, u, v scalar) int {
	if x.big == nil && y.big == nil && u.big == nil && v.big == nil {
		return mul(x.w, y.w).compare(mul(u.w, v.w))
	}
	c := &t.cross
	l := c[4].Mul(x.toBig(&c[0]), y.toBig(&c[1]))
	r := c[5].Mul(u.toBig(&c[2]), v.toBig(&c[3]))
	return l.Cmp(r)
}

// mag128 is a signed 128-bit integer in sign-magnitude form: hi:lo is the
// magnitude and neg its sign, never set on zero. Word rows form every
// product and difference in it, through the checked helpers below.
type mag128 struct {
	hi, lo uint64
	neg    bool
}

func (m mag128) isZero() bool { return m.hi|m.lo == 0 }

// wordMag returns x as a mag128.
func wordMag(x int64) mag128 { return mag128{lo: absU(x), neg: x < 0} }

// word returns m as an int64; its magnitude must be at most 2⁶³−1.
func (m mag128) word() int64 {
	if m.neg {
		return -int64(m.lo)
	}
	return int64(m.lo)
}

// absU returns |x|.
func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// mul returns x·y.
func mul(x, y int64) mag128 {
	hi, lo := bits.Mul64(absU(x), absU(y))
	return mag128{hi: hi, lo: lo, neg: (x < 0) != (y < 0) && hi|lo != 0}
}

// sub returns m − o. Both magnitudes stay below 2¹²⁷ (products of two
// words), so the magnitude of the difference fits.
func (m mag128) sub(o mag128) mag128 {
	if m.neg != o.neg {
		lo, carry := bits.Add64(m.lo, o.lo, 0)
		hi, _ := bits.Add64(m.hi, o.hi, carry)
		return mag128{hi: hi, lo: lo, neg: m.neg}
	}
	lo, borrow := bits.Sub64(m.lo, o.lo, 0)
	hi, borrow := bits.Sub64(m.hi, o.hi, borrow)
	if borrow == 0 {
		return mag128{hi: hi, lo: lo, neg: m.neg && hi|lo != 0}
	}
	// |m| < |o|: the magnitude is the two's complement of the difference.
	lo, borrow = bits.Sub64(0, lo, 0)
	hi, _ = bits.Sub64(0, hi, borrow)
	return mag128{hi: hi, lo: lo, neg: !m.neg}
}

// compare returns the sign of m − o.
func (m mag128) compare(o mag128) int {
	if m.neg != o.neg {
		if m.neg {
			return -1
		}
		return 1
	}
	c := cmp.Compare(m.hi, o.hi)
	if c == 0 {
		c = cmp.Compare(m.lo, o.lo)
	}
	if m.neg {
		return -c
	}
	return c
}

// quoWord returns m/g, which g divides exactly, when the quotient fits a
// word row (magnitude at most 2⁶³−1).
func (m mag128) quoWord(g uint64) (int64, bool) {
	q := m.lo
	if g != 1 {
		if m.hi >= g {
			return 0, false
		}
		q, _ = bits.Div64(m.hi, m.lo, g)
	} else if m.hi != 0 {
		return 0, false
	}
	if q > math.MaxInt64 {
		return 0, false
	}
	return mag128{lo: q, neg: m.neg}.word(), true
}

// contentGCD returns the gcd of d and every magnitude of mags, or 0 when
// none of them fits a word. The word-sized values seed a word gcd, and
// each wider value folds into it as gcd(g, v mod g) through bits.Rem64.
func contentGCD(d mag128, mags []mag128) uint64 {
	var g uint64
	if d.hi == 0 {
		g = d.lo
	}
	wide := d.hi != 0
	for _, m := range mags {
		if m.hi != 0 {
			wide = true
			continue
		}
		if g = gcd64(g, m.lo); g == 1 {
			return 1
		}
	}
	if g == 0 || !wide {
		return g
	}
	if d.hi != 0 {
		g = gcd64(g, bits.Rem64(d.hi, d.lo, g))
	}
	for _, m := range mags {
		if g == 1 {
			break
		}
		if m.hi != 0 {
			g = gcd64(g, bits.Rem64(m.hi, m.lo, g))
		}
	}
	return g
}

// gcd64 returns gcd(a, b); gcd(0, b) = b. One Euclid step reduces the
// larger operand below the smaller (often to zero: a row's pivot divides
// most of its scaled entries), then the binary algorithm finishes.
func gcd64(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if a == 0 {
		return b
	}
	if b %= a; b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
		if b == 0 {
			return a << shift
		}
	}
}
