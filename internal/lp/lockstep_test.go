package lp

import (
	"context"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/rat"
)

// lockstepTableau runs the sparse tableau (with its column index checked,
// checkedTableau) and the dense reference through the same solve, call
// for call. Every probe must answer alike on both, and the ratio test and
// the pricing must pick the same row and column. After every call that
// changes the tableau, a settled deep copy of the sparse tableau must hold
// the dense tableau's basis and, row for row, its normalized numbers in
// the form those numbers call for. The copy leaves the sparse tableau's
// deferred rows deferred, so the solve runs as it would untested.
type lockstepTableau struct {
	s checkedTableau
	d *denseTableau
	n *LockstepCounts
}

// LockstepCounts tallies what the lockstep tableaus of a test went
// through: pivots, rows deferred by a degenerate pivot, ratio tests that
// had to settle such rows, row drops with deferred rows pending, rows the
// warm rebuild left waiting, and settles of those rows.
type LockstepCounts struct {
	Pivots, Deferred, LeavingSettles, DropsWhileStale int
	RebuildDeferred, RebuildSettles                   int
}

// WithLockstepTableau returns a context under which every
// Model.SolveCtx runs on a lockstep tableau that fails t at the first
// difference and tallies into n. Like WithDenseTableau, only this
// package's test binary can see it.
func WithLockstepTableau(ctx context.Context, t *testing.T, n *LockstepCounts) context.Context {
	return context.WithValue(ctx, tableauCtxKey{}, func(nCols int) tableau {
		s := checkedTableau{newSparseTableau(nCols), t, &indexCounts{}}
		return lockstepTableau{s, newDenseTableau(nCols), n}
	})
}

// agree fails the test when the two tableaus answer a probe differently
// and returns the answer.
func agree[T comparable](l lockstepTableau, probe string, s, d T) T {
	l.s.t.Helper()
	if s != d {
		l.s.t.Fatalf("pivot %d: %s: sparse %v, dense %v", l.n.Pivots, probe, s, d)
	}
	return s
}

func (l lockstepTableau) addRow(entries []colVal, den scalar, basic int) {
	l.s.addRow(entries, den, basic)
	l.d.addRow(entries, den, basic)
}

func (l lockstepTableau) nRows() int      { return agree(l, "nRows", l.s.nRows(), l.d.nRows()) }
func (l lockstepTableau) basic(i int) int { return agree(l, "basic", l.s.basic(i), l.d.basic(i)) }
func (l lockstepTableau) entering(bland bool) int {
	return agree(l, "entering", l.s.entering(bland), l.d.entering(bland))
}
func (l lockstepTableau) rowRHSSign(i int) int {
	return agree(l, "rowRHSSign", l.s.rowRHSSign(i), l.d.rowRHSSign(i))
}
func (l lockstepTableau) colSign(i, c int) int {
	return agree(l, "colSign", l.s.colSign(i, c), l.d.colSign(i, c))
}
func (l lockstepTableau) rowLen(i int) int { return agree(l, "rowLen", l.s.rowLen(i), l.d.rowLen(i)) }

// rowsOf returns the sparse tableau's list: the dense one lists every
// row. The rebuild probes only rows it may pivot into, which both
// tableaus hold alike; that the list names every row holding c is
// checkedTableau's check.
func (l lockstepTableau) rowsOf(c int) []int32 { return l.s.rowsOf(c) }

// rebuildWaiting reports whether rows the warm rebuild left waiting are
// pending; countRebuildSettle counts a settle of them when they were
// pending before a call and are not after it.
func (l lockstepTableau) rebuildWaiting() bool { return len(l.s.order) > 0 && len(l.s.stale) > 0 }

func (l lockstepTableau) countRebuildSettle(waiting bool) {
	if waiting && !l.rebuildWaiting() {
		l.n.RebuildSettles++
	}
}

func (l lockstepTableau) value(i int) rat.Rat {
	agree(l, "value", l.s.value(i).RatString(), l.d.value(i).RatString())
	return l.s.value(i)
}

func (l lockstepTableau) objValue() rat.Rat {
	agree(l, "objValue", l.s.objValue().RatString(), l.d.objValue().RatString())
	return l.s.objValue()
}

func (l lockstepTableau) firstNonzero(i int, skip []bool) (int, int) {
	sc, ss := l.s.firstNonzero(i, skip)
	dc, ds := l.d.firstNonzero(i, skip)
	agree(l, "firstNonzero", [2]int{sc, ss}, [2]int{dc, ds})
	return sc, ss
}

func (l lockstepTableau) leaving(c int) int {
	waiting, deferred := l.rebuildWaiting(), len(l.s.stale) > 0
	r := agree(l, "leaving", l.s.leaving(c), l.d.leaving(c))
	l.countRebuildSettle(waiting)
	if deferred && !waiting && len(l.s.stale) == 0 {
		l.n.LeavingSettles++
	}
	return r
}

func (l lockstepTableau) pivot(pr, pc int) {
	waiting, before := l.rebuildWaiting(), len(l.s.stale)
	l.s.pivot(pr, pc)
	l.d.pivot(pr, pc)
	l.n.Pivots++
	l.n.Deferred += max(len(l.s.stale)-before, 0)
	l.countRebuildSettle(waiting)
	l.same("pivot")
}

func (l lockstepTableau) pivotForward(pr, pc int, wanted []bool) {
	before := len(l.s.stale)
	l.s.pivotForward(pr, pc, wanted)
	l.d.pivotForward(pr, pc, wanted)
	l.n.Pivots++
	l.n.RebuildDeferred += len(l.s.stale) - before
	l.same("pivotForward")
}

func (l lockstepTableau) installObjective(entries []colVal, den scalar) {
	l.s.installObjective(entries, den)
	l.d.installObjective(entries, den)
	l.same("installObjective")
}

func (l lockstepTableau) negateRow(i int) {
	l.s.negateRow(i)
	l.d.negateRow(i)
	l.same("negateRow")
}

func (l lockstepTableau) dropRow(i int) {
	if len(l.s.stale) > 0 {
		l.n.DropsWhileStale++
	}
	defer l.countRebuildSettle(l.rebuildWaiting())
	l.s.dropRow(i)
	l.d.dropRow(i)
	l.same("dropRow")
}

func (l lockstepTableau) dropColumns(cols []bool) {
	l.s.dropColumns(cols)
	l.d.dropColumns(cols)
	l.same("dropColumns")
}

// same fails the test unless a settled deep copy of the sparse tableau
// equals the dense one: the same basis, and every constraint row and the
// objective row holding the same normalized numbers.
func (l lockstepTableau) same(after string) {
	t := l.s.t
	t.Helper()
	c := settledCopy(l.s.sparseTableau)
	if !slices.Equal(c.basis, l.d.basis) {
		t.Fatalf("after %s (pivot %d): basis sparse %v, dense %v", after, l.n.Pivots, c.basis, l.d.basis)
	}
	for i, r := range c.rows {
		if !sameRow(r, l.d.rows[i]) {
			t.Fatalf("after %s (pivot %d): row %d differs: sparse %s, dense %s",
				after, l.n.Pivots, i, rowSnapshot(c, i), rowSnapshot(l.d, i))
		}
	}
	if (c.obj == nil) != (l.d.obj == nil) || c.obj != nil && !sameRow(c.obj, l.d.obj) {
		t.Fatalf("after %s (pivot %d): objective rows differ", after, l.n.Pivots)
	}
}

// settledCopy returns a deep copy of t with its deferred rows settled.
func settledCopy(t *sparseTableau) *sparseTableau {
	c := newSparseTableau(t.rhs)
	c.basis = slices.Clone(t.basis)
	c.stale = slices.Clone(t.stale)
	c.order = slices.Clone(t.order)
	for _, r := range t.rows {
		c.rows = append(c.rows, cloneRow(r))
	}
	if t.obj != nil {
		c.obj = cloneRow(t.obj)
	}
	c.settleAll()
	return c
}

// sameRow reports whether the sparse row holds exactly the dense row's
// normalized numerators and denominator, in word form exactly when they
// all fit a word.
func sameRow(r *sparseRow, d *row) bool {
	var buf big.Int
	if r.den().toBig(&buf).Cmp(d.d) != 0 {
		return false
	}
	fits := fitsWord(d.d)
	k := 0
	for j, v := range d.n {
		if v.Sign() == 0 {
			continue
		}
		fits = fits && fitsWord(v)
		if k == len(r.cols) || r.cols[k] != j || r.at(k).toBig(&buf).Cmp(v) != 0 {
			return false
		}
		k++
	}
	return k == len(r.cols) && r.wide != fits
}

// Two hand-built LPs that FuzzLP also starts from. settleInLeavingSeed
// decodes to max x0 + x1 subject to x0 − x1 ≤ 0 and x0 + x1 ≤ 1. The
// first pivot, x0 into the rhs-0 row, is degenerate and defers the other
// row; x1 then has no positive entry in the rhs-0 row, so the ratio test
// must settle the deferred row, which leaves on a nondegenerate pivot.
// dropWhileStaleSeed decodes to max x2 subject to x0 + x1 = 0 twice and
// x0 + x2 ≤ 1. Phase 1 pivots x0 into the first equality, which defers
// the ≤ row, and the drive-out then drops the second equality as
// redundant while that row is still deferred.
var (
	settleInLeavingSeed = []byte{0x13, 1, 1, 0, 0, 1, 2, 0, 0, 0, 1, 1, 0, 1}
	dropWhileStaleSeed  = []byte{0x1d, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
)

// negateObjective flips the sign of every objective entry of m. The
// structural fingerprint ignores the objective, so m's bases still fit,
// but an optimal one is seldom optimal for the negated objective.
func negateObjective(m *Model) {
	for v, c := range m.obj {
		m.obj[v] = rat.Neg(c)
	}
}

// TestDeferredRowsLockstep runs the sparse and the dense tableau in
// lockstep (lockstepTableau) through FuzzLP's seeds and the LPs of
// randomWarmModel at the three scales of TestSparseDenseWordEscape, each
// solved cold, then warm from its cold basis, then warm from the same
// basis with its objective negated, where phase 2 must leave the basis:
// both phases, the drive-out, the warm rebuild with its waiting rows,
// their settling, and the row and column drops. The two hand-built seeds
// must show what they are built for.
func TestDeferredRowsLockstep(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed []byte
		want func(LockstepCounts) bool
	}{
		{"settleInLeaving", settleInLeavingSeed, func(n LockstepCounts) bool { return n.Deferred > 0 && n.LeavingSettles > 0 }},
		{"dropWhileStale", dropWhileStaleSeed, func(n LockstepCounts) bool { return n.DropsWhileStale > 0 }},
	} {
		var n LockstepCounts
		if _, err := decodeLP(tc.seed).SolveCtx(WithLockstepTableau(context.Background(), t, &n)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.want(n) {
			t.Errorf("%s: %+v: the LP no longer takes the path it is built for", tc.name, n)
		}
	}

	var models []*Model
	for _, seed := range fuzzLPSeeds {
		models = append(models, decodeLP(seed))
	}
	for _, scale := range []rat.Rat{rat.One(), rat.Int(math.MaxInt32), rat.Int(9223372036854775783)} {
		for seed := int64(0); seed < 200; seed++ {
			models = append(models, randomWarmModel(seed, scale))
		}
	}
	var n LockstepCounts
	ctx := WithLockstepTableau(context.Background(), t, &n)
	for _, m := range models {
		cold, err := m.SolveCtx(ctx)
		if err != nil {
			continue
		}
		m.StartFrom(cold.Basis())
		if _, err := m.SolveCtx(ctx); err != nil {
			t.Fatalf("warm re-solve: %v", err)
		}
		negateObjective(m)
		m.SolveCtx(ctx) // unbounded is an answer too; lockstep checks both agree
	}
	t.Logf("%+v", n)
	if n.Deferred == 0 || n.LeavingSettles == 0 || n.DropsWhileStale == 0 {
		t.Fatalf("%+v: want rows deferred, ratio tests that settle, and drops while rows are deferred", n)
	}
	if n.RebuildDeferred == 0 || n.RebuildSettles == 0 {
		t.Fatalf("%+v: want rows the warm rebuild leaves waiting, and settles of them", n)
	}
}
