package lp

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"slices"

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
	cols  []int
	wide  bool
	stale bool       // deferred: eliminations against basic rows are pending
	w     []int64    // word form: parallel to cols; entries are never zero
	wd    int64      // word form: the denominator, > 0
	num   []*big.Int // wide form: parallel to cols; entries are never zero
	d     *big.Int   // wide form: the denominator, > 0
}

// scalar is one integer of the tableau — an entry read out of a row, a
// denominator, or a numerator of a row under assembly: the word w when
// big is nil, else big. A word scalar is never math.MinInt64. The zero
// scalar is an absent entry.
type scalar struct {
	w   int64
	big *big.Int
}

// word returns s as an int64 when it fits a word row.
func (s scalar) word() (int64, bool) {
	switch {
	case s.big == nil:
		return s.w, true
	case fitsWord(s.big):
		return s.big.Int64(), true
	}
	return 0, false
}

// neg returns −s.
func (s scalar) neg() scalar {
	if s.big != nil {
		return scalar{big: new(big.Int).Neg(s.big)}
	}
	return scalar{w: -s.w}
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

// rhsAt returns the rhs numerator, read from the row's last slot because
// rhs is the highest column.
func (r *sparseRow) rhsAt(rhs int) scalar {
	if last := len(r.cols) - 1; last >= 0 && r.cols[last] == rhs {
		return r.at(last)
	}
	return scalar{}
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
// at a time. An update whose pivot entry is 1 (most of them) copies the
// entries it leaves unchanged in bulk and computes only those the pivot
// row touches. A per-column index lists the rows that may hold each
// column, so the ratio test and every pivot visit only the rows holding
// the entering column, never the whole tableau; dropColumns removes the
// artificial columns from the rows once phase 1 is over. Row updates run
// allocation-free through tableau-owned scratch buffers and a big.Int
// pool, so the skipped zero-columns turn into wall-clock speedup over the
// dense tableau.
//
// Once an objective is installed, a degenerate pivot (rhs 0 in the pivot
// row) defers the rows with a positive rhs instead of updating them: such
// a pivot moves no rhs, and no positive-rhs row can win a ratio test
// while a zero-rhs row qualifies. A deferred (stale) row settles when it
// must be read whole (settleAll): in a ratio test that no zero-rhs row
// decides, before any other pivot and any row drop, and in
// installObjective. Settling eliminates the basic columns the row holds
// against their rows, which leaves it B⁻¹[A | b]'s row normalized by its
// content gcd, the value and form eager updates would have left.
//
// The warm rebuild defers rows too (pivotForward): its pivots eliminate
// forward only, so a row whose basic column the rebuild wants waits as
// soon as a later pivot column reaches it. Such a row holds only the
// basic columns of rows that entered after its own, so the rows of order
// form a triangular system: x_B follows by back-substitution over the rhs
// column (basicValues), the objective installs by forward substitution,
// and the rows settle only when a ratio test needs them.
type sparseTableau struct {
	rows  []*sparseRow
	obj   *sparseRow
	basis []int
	rhs   int // index of the rhs column
	// stale lists the deferred rows once each; rowOf maps a column to the
	// row it is basic in (−1 otherwise) while settleAll or basicValues
	// runs, and elim holds the columns settleAll eliminates from one row.
	stale []int32
	rowOf []int32
	elim  []int
	// order lists, while the warm rebuild's rows wait, the rows whose
	// basic column the rebuild wants in the order those columns entered:
	// the rows basic in a wanted column before the first rebuild pivot,
	// then each rebuild pivot's row. It is empty otherwise. xb holds the
	// basic values basicValues computes for the waiting rows, indexed by
	// row, once a value is read; nil until then.
	order []int32
	xb    []rat.Rat
	// colRows[c] lists the rows that may hold column c (rhs excluded):
	// every row that does is listed, but a listed row may since have lost
	// its entry, and may be listed twice. The index is nil until the first
	// ratio test or pivot builds it, and addRow, dropRow and dropColumns
	// set it back to nil. Every fill-in of a constraint row appends to its
	// column's list, and a pivot on c, which follows every ratio test on c
	// but an unbounded one, resets c's list to the pivot row and the
	// deferred rows it lists, which may still hold c, clearing it of the
	// other lost entries and duplicates. fill is the row whose fill-in the
	// running update or settle lists (−1 while the objective row is
	// updated).
	colRows [][]int32
	fill    int32
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

func newSparseTableau(nCols int) *sparseTableau {
	return &sparseTableau{rhs: nCols, fill: -1}
}

// filled lists row t.fill in the index of col, where the running update
// has just given it an entry.
func (t *sparseTableau) filled(col int) {
	if t.fill >= 0 && col < t.rhs {
		t.colRows[col] = append(t.colRows[col], t.fill)
	}
}

// rowsOf returns the list of column c, building the index first when it
// is not built: before the first ratio test or pivot, and after rows or
// columns were dropped.
func (t *sparseTableau) rowsOf(c int) []int32 {
	if t.colRows == nil {
		t.buildIndex()
	}
	return t.colRows[c]
}

// buildIndex lists every row under each of its columns. The lists are cut
// from one array, each with room for as many fill-ins as it has entries
// before it moves.
func (t *sparseTableau) buildIndex() {
	n := make([]int, t.rhs)
	total := 0
	for _, r := range t.rows {
		for _, col := range r.cols {
			if col < t.rhs {
				n[col]++
				total++
			}
		}
	}
	all := make([]int32, 2*total)
	t.colRows = make([][]int32, t.rhs)
	for c, k := range n {
		t.colRows[c], all = all[:0:2*k], all[2*k:]
	}
	for i, r := range t.rows {
		for _, col := range r.cols {
			if col < t.rhs {
				t.colRows[col] = append(t.colRows[col], int32(i))
			}
		}
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
// word form the update runs in words: combineUnit when p is 1, else (or
// when combineUnit declines) the general merge combineWords. When either
// row is wide, or the word result does not fit, the big.Int update runs
// for r alone (combineWide). All of them normalize by the content gcd, so
// r ends with the same values, and in the same form, whichever code
// computed it.
func (t *sparseTableau) combine(r, prow *sparseRow, p, f scalar) {
	if f.sign() == 0 {
		return
	}
	if !r.wide && !prow.wide {
		if p.w == 1 && t.combineUnit(r, prow, f.w) || t.combineWords(r, prow, p.w, f.w) {
			return
		}
		t.escapes++
	}
	t.combineWide(r, prow, p, f)
}

// combineUnit is combine over two word rows for a pivot entry of 1:
// r ← (r − f·prow)/d over r's own denominator d, so the entries of r
// outside prow's columns keep their numerators. For each column of prow
// it binary-searches forward in r, copies the run of r before it in bulk,
// and forms the one changed or new value r − f·q in 128 bits, dropping it
// when it cancels. The content gcd starts from d and the changed values;
// the rest of the row folds in only while it stays above 1. When a changed
// value needs more than 63 bits before normalization, combineUnit reports
// false and leaves r untouched, and the general merge takes the update.
func (t *sparseTableau) combineUnit(r, prow *sparseRow, f int64) bool {
	cols := t.scratchCols[:0]
	w := t.scratchW[:0]
	g := uint64(r.wd)
	i := 0
	for j, col := range prow.cols {
		k, found := slices.BinarySearch(r.cols[i:], col)
		k += i
		cols = append(cols, r.cols[i:k]...)
		w = append(w, r.w[i:k]...)
		m := mul(f, prow.w[j])
		if found {
			m = wordMag(r.w[k]).sub(m)
			k++
		} else {
			m.neg = !m.neg // −f·q, never zero
		}
		i = k
		if m.isZero() {
			continue
		}
		if m.hi != 0 || m.lo > math.MaxInt64 {
			t.scratchCols, t.scratchW = cols, w // keep the grown buffers
			return false
		}
		if !found {
			t.filled(col)
		}
		if g != 1 {
			g = gcd64(g, m.lo)
		}
		cols = append(cols, col)
		w = append(w, m.word())
	}
	cols = append(cols, r.cols[i:]...)
	w = append(w, r.w[i:]...)
	if g != 1 {
		for _, v := range w {
			if g = gcd64(g, absU(v)); g == 1 {
				break
			}
		}
	}
	if g != 1 {
		for k := range w {
			w[k] /= int64(g)
		}
	}
	t.scratchCols, r.cols = r.cols[:0], cols
	t.scratchW, r.w = r.w[:0], w
	r.wd /= int64(g)
	return true
}

// combineWords is combine over two word rows, the general merge. It walks
// both sorted column lists once and forms every r·p − f·q and d·p
// exactly in sign-magnitude 128-bit words, then divides by their content
// gcd. Values that fit a word before normalization (nearly all) go
// straight to the output, folding into the gcd as they pass; from the
// first one that does not, the rest of the update keeps its values in
// 128 bits. The result is committed, swapping r's slices with the tableau
// scratch so steady state allocates nothing, only when every normalized
// value fits a word; otherwise combineWords reports false and leaves r
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
			t.filled(col)
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
			t.filled(prow.cols[j])
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
func (t *sparseTableau) loadRow(entries []colVal, den scalar) *sparseRow {
	r := &sparseRow{cols: make([]int, 0, len(entries))}
	wd, fits := den.word()
	for _, e := range entries {
		if e.num.sign() != 0 {
			r.cols = append(r.cols, e.col)
			_, ok := e.num.word()
			fits = fits && ok
		}
	}
	if fits {
		r.wd, r.w = wd, make([]int64, 0, len(r.cols))
		for _, e := range entries {
			if v, _ := e.num.word(); v != 0 {
				r.w = append(r.w, v)
			}
		}
		normalizeWords(r)
		return r
	}
	r.wide, r.d = true, new(big.Int).Set(den.toBig(&t.tmp))
	r.num = make([]*big.Int, 0, len(r.cols))
	for _, e := range entries {
		if e.num.sign() != 0 {
			r.num = append(r.num, new(big.Int).Set(e.num.toBig(&t.tmp)))
		}
	}
	t.normalizeWide(r)
	t.narrow(r)
	return r
}

func (t *sparseTableau) addRow(entries []colVal, den scalar, basic int) {
	t.rows = append(t.rows, t.loadRow(entries, den))
	t.basis = append(t.basis, basic)
	t.colRows = nil
}

func (t *sparseTableau) nRows() int        { return len(t.rows) }
func (t *sparseTableau) basic(i int) int   { return t.basis[i] }
func (t *sparseTableau) objValue() rat.Rat { return t.rational(t.obj, t.rhs) }

// value and rowRHSSign read a row's basic value. A row a degenerate pivot
// deferred reads as it stands, since such pivots move no rhs; a row the
// warm rebuild left waiting reads its back-substituted value.
func (t *sparseTableau) value(i int) rat.Rat {
	if t.rows[i].stale && len(t.order) > 0 {
		return rat.Copy(t.basicValues()[i])
	}
	return t.rational(t.rows[i], t.rhs)
}

func (t *sparseTableau) rowRHSSign(i int) int {
	if t.rows[i].stale && len(t.order) > 0 {
		return t.basicValues()[i].Sign()
	}
	return t.rows[i].sign(t.rhs)
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

// dropColumns removes the flagged columns from every constraint row and
// renormalizes each row it shortens by its content gcd, so the values of
// the entries that remain do not change. The index is rebuilt, free of
// the dropped columns and of every stale entry.
func (t *sparseTableau) dropColumns(cols []bool) {
	for _, r := range t.rows {
		n := 0
		for k, col := range r.cols {
			if col < t.rhs && cols[col] {
				if r.wide {
					t.pool = append(t.pool, r.num[k])
				}
				continue
			}
			r.cols[n] = col
			if r.wide {
				r.num[n] = r.num[k]
			} else {
				r.w[n] = r.w[k]
			}
			n++
		}
		if n == len(r.cols) {
			continue
		}
		r.cols = r.cols[:n]
		if r.wide {
			clear(r.num[n:])
			r.num = r.num[:n]
			t.normalizeWide(r)
			t.narrow(r)
		} else {
			r.w = r.w[:n]
			normalizeWords(r)
		}
	}
	t.colRows = nil
}

// firstNonzero, negateRow, colSign and rowLen read row i as stored, so
// it must not be deferred. The drive-out hands them only rows with rhs 0
// whose basic column is artificial, which never defer, and the warm
// rebuild only rows whose basic column it does not want, which it
// updates eagerly.
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
// The deferred rows settle first, while row i's basic column still has
// its row to be eliminated against.
func (t *sparseTableau) dropRow(i int) {
	t.settleAll()
	n := len(t.rows)
	copy(t.rows[i:], t.rows[i+1:])
	t.rows[n-1] = nil
	t.rows = t.rows[:n-1]
	copy(t.basis[i:], t.basis[i+1:])
	t.basis = t.basis[:n-1]
	t.colRows = nil // the rows after i moved up one
}

// installObjective eliminates the basic columns from the new objective
// row: z ← z − z[b]·row_i in rational form for the column b basic in row
// i, which is solved for b (row_i[b]/row_i.d == 1), so p is the row's
// denominator. Rows a degenerate pivot deferred settle first. The warm
// rebuild's waiting rows need not: taken in the order their basic
// columns entered, each holds only basic columns that later rows
// eliminate, so one pass of forward substitution leaves the same
// reduced-cost row.
func (t *sparseTableau) installObjective(entries []colVal, den scalar) {
	if len(t.order) == 0 {
		t.settleAll()
	}
	z := t.loadRow(entries, den)
	t.obj = z
	for _, i := range t.order {
		r := t.rows[i]
		t.combine(z, r, r.den(), z.get(t.basis[i]))
	}
	for i, b := range t.basis {
		t.combine(z, t.rows[i], t.rows[i].den(), z.get(b))
	}
}

// pivot performs a Gauss-Jordan pivot at (pr, pc); the entry must be
// strictly positive. It updates only the rows the index lists under pc —
// rows without an entry there are untouched — and then lists pr and the
// deferred rows it listed, the only rows that may still hold pc. A
// degenerate pivot under an installed objective defers the positive-rhs
// rows holding pc; any other pivot settles the deferred rows first.
func (t *sparseTableau) pivot(pr, pc int) {
	deferring := t.obj != nil && t.rows[pr].rhsAt(t.rhs).sign() == 0
	if !deferring {
		t.settleAll()
	}
	t.eliminate(pr, pc, deferring, nil)
}

// pivotForward is the warm rebuild's pivot at (pr, pc): it updates the
// rows whose basic column is not flagged in wanted, as pivot does, and
// defers the rows whose basic column is flagged and that hold pc. Row pr
// enters order; the first rebuild pivot lists the rows already basic in
// a wanted column ahead of it.
func (t *sparseTableau) pivotForward(pr, pc int, wanted []bool) {
	if len(t.order) == 0 {
		for i, b := range t.basis {
			if wanted[b] {
				t.order = append(t.order, int32(i))
			}
		}
	}
	t.order = append(t.order, int32(pr))
	t.xb = nil
	t.eliminate(pr, pc, false, wanted)
}

// eliminate is the body of pivot and pivotForward: it eliminates pc from
// the rows the index lists under it, but for row pr and the rows it
// defers — those already deferred, with deferring the rows with a
// positive rhs, and with wanted non-nil the rows whose basic column is
// flagged — then solves row pr for pc.
func (t *sparseTableau) eliminate(pr, pc int, deferring bool, wanted []bool) {
	prow := t.rows[pr]
	p := prow.get(pc) // > 0
	if p.big != nil {
		p.big = t.alloc().Set(p.big) // becomes the row's denominator below
	}
	list := t.rowsOf(pc)
	kept := list[:0]
	for _, i := range list {
		if int(i) == pr {
			continue
		}
		r := t.rows[i]
		if r.stale {
			kept = append(kept, i)
			continue
		}
		f := r.get(pc)
		switch {
		case f.sign() == 0:
		case deferring && r.rhsAt(t.rhs).sign() > 0, wanted != nil && wanted[t.basis[i]]:
			r.stale = true
			t.stale = append(t.stale, i)
			kept = append(kept, i)
		default:
			t.fill = i
			t.combine(r, prow, p, f)
		}
	}
	t.fill = -1
	t.colRows[pc] = append(kept, int32(pr))
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
}

// entering picks the entering column, or -1 at optimality — Dantzig's
// rule, or Bland's when bland is set, iterating only the objective row's
// nonzero entries (zero reduced costs are never negative, so skipping
// them picks the same column the dense scan does).
func (t *sparseTableau) entering(bland bool) int {
	obj := t.obj
	best, bestK := -1, 0
	for k, col := range obj.cols {
		if col >= t.rhs {
			break
		}
		if obj.signAt(k) >= 0 {
			continue
		}
		if bland {
			return col
		}
		if best == -1 || obj.less(k, bestK) {
			best, bestK = col, k
		}
	}
	return best
}

// leaving runs the ratio test for entering column c — identical rule and
// tie-breaking to the dense implementation — over the rows the index
// lists under c. Ties break on the rows' basic columns, which differ from
// row to row, so neither the order of the list nor a row listed twice
// can change the row picked. The rows a degenerate pivot deferred all
// have a positive rhs, so they cannot beat or tie a ratio of 0; only when
// the rows that are not deferred give no ratio of 0 or below do the
// deferred rows settle and the test run over every row. The warm
// rebuild's waiting rows may have rhs 0, so they settle before the first
// ratio test.
func (t *sparseTableau) leaving(c int) int {
	if len(t.order) > 0 {
		t.settleAll()
	}
	best, b := t.ratioTest(c)
	if len(t.stale) > 0 && (best < 0 || b.sign() > 0) {
		t.settleAll()
		best, _ = t.ratioTest(c)
	}
	return best
}

// ratioTest is leaving over the rows that are not deferred; it returns
// the row picked, or -1, and that row's rhs numerator.
func (t *sparseTableau) ratioTest(c int) (int, scalar) {
	best := -1
	var bn, bd scalar // best ratio = bn/bd, bd > 0
	for _, li := range t.rowsOf(c) {
		i, ri := int(li), t.rows[li]
		if ri.stale {
			continue
		}
		k := ri.find(c)
		if k < 0 || ri.signAt(k) < 0 {
			continue
		}
		a := ri.at(k)
		b := ri.rhsAt(t.rhs)
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
	return best, bn
}

// settleAll settles every deferred row: each basic column the row holds,
// other than its own, is eliminated against that column's row, the
// elimination installObjective runs on the objective row, once that row
// has settled. The warm rebuild's rows settle latest entry first, by
// back-substitution, since each holds only the basic columns of rows that
// entered after it. The other deferred rows settle in any order: they
// defer only through degenerate pivots, whose pivot rows have rhs 0, so
// since the first such deferral no positive-rhs row has changed its basic
// column, and a row so deferred holds no other deferred row's basic
// column. Fill-in is listed in the index (when it is built) as a pivot
// lists it.
func (t *sparseTableau) settleAll() {
	if len(t.stale) == 0 {
		t.order, t.xb = t.order[:0], nil
		return
	}
	t.mapBasis()
	for k := len(t.order) - 1; k >= 0; k-- {
		t.settle(t.order[k])
	}
	for _, i := range t.stale {
		t.settle(i)
	}
	t.fill = -1
	t.unmapBasis()
	t.stale = t.stale[:0]
	t.order, t.xb = t.order[:0], nil
}

// settle settles row i when it is deferred; rowOf maps the basis.
func (t *sparseTableau) settle(i int32) {
	r := t.rows[i]
	if !r.stale {
		return
	}
	elim := t.elim[:0]
	for _, col := range r.cols {
		if col < t.rhs && t.rowOf[col] >= 0 && t.rowOf[col] != i {
			elim = append(elim, col)
		}
	}
	if t.colRows != nil {
		t.fill = i
	}
	for _, col := range elim {
		b := t.rows[t.rowOf[col]]
		t.combine(r, b, b.den(), r.get(col))
	}
	t.elim = elim
	r.stale = false
}

// mapBasis points rowOf at the row each basic column is basic in;
// unmapBasis points it back at no row.
func (t *sparseTableau) mapBasis() {
	if t.rowOf == nil {
		t.rowOf = make([]int32, t.rhs)
		for c := range t.rowOf {
			t.rowOf[c] = -1
		}
	}
	for i, b := range t.basis {
		t.rowOf[b] = int32(i)
	}
}

func (t *sparseTableau) unmapBasis() {
	for _, b := range t.basis {
		t.rowOf[b] = -1
	}
}

// basicValues returns the basic value of every row of order, indexed by
// row, computing them on first use by back-substitution over the rhs
// column alone: latest entry first, a row's value is its rhs less its
// entry in each later row's basic column times that row's value, over
// its entry in its own basic column (its denominator, as that entry is
// 1). Each row's sum is formed fraction-free from the row's integers and
// reduced once.
func (t *sparseTableau) basicValues() []rat.Rat {
	if t.xb != nil {
		return t.xb
	}
	xb := make([]rat.Rat, len(t.rows))
	t.mapBasis()
	var p, q, a big.Int
	for k := len(t.order) - 1; k >= 0; k-- {
		i := t.order[k]
		r := t.rows[i]
		p.Set(r.rhsAt(t.rhs).toBig(&a))
		q.SetInt64(1)
		for pos, col := range r.cols {
			if col >= t.rhs {
				break
			}
			if j := t.rowOf[col]; j >= 0 && j != i && xb[j].Sign() != 0 {
				x := xb[j] // p/q − a·x = (p·x.d − a·x.n·q) / (q·x.d)
				a.Mul(r.at(pos).toBig(&a), x.Num())
				p.Sub(p.Mul(&p, x.Denom()), a.Mul(&a, &q))
				q.Mul(&q, x.Denom())
			}
		}
		xb[i] = new(big.Rat).SetFrac(&p, q.Mul(&q, r.den().toBig(&a)))
	}
	t.unmapBasis()
	t.xb = xb
	return xb
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
