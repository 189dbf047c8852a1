package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/rat"
)

// colVal is one nonzero tableau entry under construction: the column index
// and the integer numerator, a word or a big.Int (the row's shared
// denominator travels alongside). Rows are assembled with strictly
// increasing columns.
type colVal struct {
	col int
	num scalar
}

// tableau is the pivoting storage of the two-phase simplex. The driver in
// SolveCtx owns every decision: the phases and their objective rows (both
// installed through installObjective), row assembly and the phase-1
// artificials, the drive-out loop, dropping the artificial columns, each
// phase's pivot count and the Bland budget (iterate), and extraction. The
// implementation owns the rows and their arithmetic, including which rows
// a ratio test or a pivot visits, and answers the probes the driver
// reads. The sparse tableau (sparse.go) is the only production
// implementation. The interface is the seam through which this package's
// tests substitute the dense reference tableau (dense_test.go), which
// must pick identical entering/leaving columns on identical states so
// that dense and sparse solves are bit-equivalent — the equivalence tests
// pin this. The picks read only the rational values of the live columns
// and the rhs, and ratio ties break on each row's basic column, so the
// order in which an implementation visits rows cannot change them.
type tableau interface {
	// addRow appends a constraint row with the given sorted nonzero
	// entries (including the rhs column) over denominator den, with the
	// column basic initially basic in it.
	addRow(entries []colVal, den scalar, basic int)
	// nRows returns the current row count (rows can be dropped).
	nRows() int
	// basic returns the column basic in row i.
	basic(i int) int
	// entering picks the entering column, or -1 at optimality: the most
	// negative reduced cost (Dantzig's rule), or with bland set the lowest
	// column with a negative one (Bland's rule).
	entering(bland bool) int
	// leaving runs the ratio test for column c, or -1 when unbounded.
	leaving(c int) int
	// pivot performs a Gauss-Jordan pivot at (pr, pc); the entry must be
	// strictly positive.
	pivot(pr, pc int)
	// pivotForward is the warm rebuild's pivot at (pr, pc): rows whose
	// basic column is flagged in wanted need not be updated. Until a ratio
	// test, a pivot or a row drop settles them, value and rowRHSSign
	// still read every row's basic value, and installObjective still
	// installs the reduced costs of the basis. The sparse tableau leaves
	// such rows waiting (eliminating forward only); the dense reference
	// pivots as pivot does.
	pivotForward(pr, pc int, wanted []bool)
	// rowsOf lists the rows that may hold column c: every row with an
	// entry there, and possibly rows without one, some more than once —
	// the warm rebuild's pivot-row candidates.
	rowsOf(c int) []int32
	// installObjective installs a reduced-cost row from the given sorted
	// entries over den and eliminates the basic columns.
	installObjective(entries []colVal, den scalar)
	// firstNonzero returns the first column (ascending, excluding rhs)
	// with a nonzero entry in row i among columns not skipped, and the
	// entry's sign; (-1, 0) when the row is zero over those columns.
	firstNonzero(i int, skip []bool) (col, sign int)
	// colSign returns the sign of row i's entry in column c — the warm
	// basis rebuild's pivot-row probe. Both implementations answer from
	// the same normalized rows, so the rebuild is representation-invariant.
	colSign(i, c int) int
	// rowLen returns the number of nonzero entries stored in row i (rhs
	// included) — the warm basis rebuild's fill probe, which sends each
	// wanted column to the shortest eligible row. Both implementations
	// count the same normalized rows, so they pick the same rows.
	rowLen(i int) int
	// negateRow flips the sign of every entry of row i.
	negateRow(i int)
	// dropRow removes row i (and its basis slot).
	dropRow(i int)
	// dropColumns removes the flagged columns, none of them basic, from
	// every constraint row for good and renormalizes each row by its
	// content gcd: the values of the entries that remain are unchanged,
	// and no later pivot reads or updates the dropped ones.
	dropColumns(cols []bool)
	// value returns the rhs value of row i as an exact rational.
	value(i int) rat.Rat
	// objValue returns the objective row's rhs as an exact rational.
	objValue() rat.Rat
	// rowRHSSign returns the sign of row i's rhs entry (0 marks the
	// degenerate pivots a tracing observer counts).
	rowRHSSign(i int) int
}

// tableauCtxKey carries a substitute tableau constructor through a
// context. Only this package's tests set it (export_test.go).
type tableauCtxKey struct{}

// newTableau builds the sparse tableau, or the substitute the context
// carries.
func newTableau(ctx context.Context, nCols int) tableau {
	if mk, ok := ctx.Value(tableauCtxKey{}).(func(nCols int) tableau); ok {
		return mk(nCols)
	}
	return newSparseTableau(nCols)
}

// blandBudget returns the number of pivots a phase may spend before the
// solver suspects cycling and switches to Bland's rule. A non-negative
// override (test hook, per model) replaces the size-derived default.
func blandBudget(rows, cols, override int) int {
	if override >= 0 {
		return override
	}
	return 50 * (rows + cols + 20)
}

// iterate pivots until optimality, unboundedness or context cancellation
// and returns the pivots it made: one phase's search. Pricing follows
// Dantzig's rule until the phase's own pivots exceed budget, and Bland's
// rule from then on; the count only grows, so once the fallback engages
// it stays on for the rest of the phase. Each pivot is dominated by its
// row updates, O(nnz) exact integer operations per updated row, so a
// per-pivot cancellation check costs nothing measurable. rec, when
// non-nil, observes every pivot for the solve trace; with no tracer
// installed rec is nil and the loop's only added cost is one pointer
// comparison per pivot (allocation-free, pinned by
// TestNoTracerPivotLoopAllocationFree).
func iterate(ctx context.Context, t tableau, budget int, rec *pivotRecorder) (int, error) {
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return n, fmt.Errorf("lp: interrupted after %d pivots: %w", n, err)
		}
		bland := n > budget
		c := t.entering(bland)
		if c < 0 {
			return n, nil
		}
		r := t.leaving(c)
		if r < 0 {
			return n, ErrUnbounded
		}
		if rec != nil {
			rec.observe(t, bland, r)
		}
		t.pivot(r, c)
	}
}

// ---------------------------------------------------------------------------
// Two-phase driver

// normRow is one constraint row in solver-normal form: canonical sorted
// terms, a sense, and (after normalization) a nonnegative right-hand side.
type normRow struct {
	terms Expr // sorted by Var, duplicates merged
	sense Sense
	rhs   rat.Rat
}

// normalizedRows assembles the constraint rows the simplex sees — model
// constraints (already canonical sorted-sparse vectors) plus upper
// bounds — and normalizes right-hand sides to be nonnegative (negating a
// row flips its sense). The structural fingerprint hashes exactly this
// list, so any drift visible here rejects a warm basis.
func (m *Model) normalizedRows() []normRow {
	var rowsIn []normRow
	for _, c := range m.cons {
		rowsIn = append(rowsIn, normRow{c.Expr, c.Sense, rat.Copy(c.RHS)})
	}
	for v, u := range m.upper {
		if u == nil {
			continue
		}
		rowsIn = append(rowsIn, normRow{NewExpr().Plus1(Var(v)), Leq, rat.Copy(u)})
	}
	for i := range rowsIn {
		if rowsIn[i].rhs.Sign() < 0 {
			neg := make(Expr, len(rowsIn[i].terms))
			for j, t := range rowsIn[i].terms {
				neg[j] = Term{Var: t.Var, Coeff: rat.Neg(t.Coeff)}
			}
			rowsIn[i].terms = neg
			rowsIn[i].rhs = rat.Neg(rowsIn[i].rhs)
			switch rowsIn[i].sense {
			case Leq:
				rowsIn[i].sense = Geq
			case Geq:
				rowsIn[i].sense = Leq
			}
		}
	}
	return rowsIn
}

// buildTableau assembles a fresh tableau in the initial (slack/artificial)
// basis from normalized rows. Column layout: structural | slacks |
// artificials | rhs. Returns the tableau, the artificial-column mask and
// the number of entries handed to addRow, which the tableau stores: no
// entry is zero (scaleRow emits none, and the slack, artificial and rhs
// entries are nonzero), and normalizing a row removes none.
func buildTableau(ctx context.Context, rowsIn []normRow, nStruct, nSlack, nCols int) (tableau, []bool, int) {
	t := newTableau(ctx, nCols)
	nnz := 0
	slackAt := nStruct
	artAt := nStruct + nSlack
	artCols := make([]bool, nCols)
	var entries []colVal // reused: addRow copies what it keeps
	for _, rin := range rowsIn {
		var den, rhs scalar
		entries, den, rhs = scaleRow(entries[:0], rin.terms, rin.rhs)
		basic := -1
		switch rin.sense {
		case Leq:
			entries = append(entries, colVal{slackAt, den}) // +1 slack
			basic = slackAt
			slackAt++
		case Geq:
			entries = append(entries, colVal{slackAt, den.neg()}) // -1 surplus
			slackAt++
			entries = append(entries, colVal{artAt, den}) // +1 artificial
			basic = artAt
			artCols[artAt] = true
			artAt++
		case Eq:
			entries = append(entries, colVal{artAt, den})
			basic = artAt
			artCols[artAt] = true
			artAt++
		}
		if rhs.sign() != 0 {
			entries = append(entries, colVal{nCols, rhs})
		}
		t.addRow(entries, den, basic)
		nnz += len(entries)
	}
	return t, artCols, nnz
}

// scaleRow appends terms to out as integer numerators over den, the least
// common multiple of the denominators of the terms and rhs, and returns
// den and rhs over den. The numbers are words when every one of them fits
// a word row (scaleWords), else big.Ints through big.Rat products; both
// compute the same integers.
func scaleRow(out []colVal, terms Expr, rhs rat.Rat) ([]colVal, scalar, scalar) {
	if words, den, r, ok := scaleWords(out, terms, rhs); ok {
		return words, den, r
	}
	coeffs := make([]rat.Rat, 0, len(terms)+1)
	for _, term := range terms {
		coeffs = append(coeffs, term.Coeff)
	}
	den := rat.DenominatorLCM(append(coeffs, rhs)...)
	for _, term := range terms {
		out = append(out, colVal{int(term.Var), scalar{big: rat.ScaleToInt(term.Coeff, den)}})
	}
	return out, scalar{big: den}, scalar{big: rat.ScaleToInt(rhs, den)}
}

// scaleWords is scaleRow in machine words: the lcm in uint64 and the
// scaled numerators in 128-bit products. It reports false when a
// numerator or denominator of the row, their lcm or a scaled numerator
// does not fit a word row.
func scaleWords(out []colVal, terms Expr, rhs rat.Rat) ([]colVal, scalar, scalar, bool) {
	lcm, ok := lcmWord(1, rhs)
	for k := 0; ok && k < len(terms); k++ {
		lcm, ok = lcmWord(lcm, terms[k].Coeff)
	}
	if !ok {
		return out, scalar{}, scalar{}, false
	}
	for _, term := range terms {
		v, ok := scaleWord(term.Coeff, lcm)
		if !ok {
			return out, scalar{}, scalar{}, false
		}
		out = append(out, colVal{int(term.Var), v})
	}
	r, ok := scaleWord(rhs, lcm)
	return out, scalar{w: int64(lcm)}, r, ok
}

// lcmWord returns the lcm of l and the denominator of x when the
// numerator and denominator of x and the lcm all fit a word row.
func lcmWord(l uint64, x rat.Rat) (uint64, bool) {
	_, d, ok := ratWords(x)
	if !ok {
		return 0, false
	}
	hi, lo := bits.Mul64(l/gcd64(l, d), d)
	return lo, hi == 0 && lo <= math.MaxInt64
}

// ratWords returns the numerator and denominator of x when both fit an
// int64.
func ratWords(x rat.Rat) (int64, uint64, bool) {
	n := x.Num()
	if !n.IsInt64() {
		return 0, 0, false
	}
	if x.IsInt() {
		return n.Int64(), 1, true
	}
	d := x.Denom()
	if !d.IsInt64() {
		return 0, 0, false
	}
	return n.Int64(), d.Uint64(), true
}

// scaleWord returns x·lcm as a word scalar when it fits a word row; the
// numerator and denominator of x fit an int64 (lcmWord checked them).
func scaleWord(x rat.Rat, lcm uint64) (scalar, bool) {
	n, d, _ := ratWords(x)
	m := mul(n, int64(lcm/d))
	if m.hi != 0 || m.lo > math.MaxInt64 {
		return scalar{}, false
	}
	return scalar{w: m.word()}, true
}

// driveOutArtificials removes every artificial column from the basis once
// all artificials sit at value zero: pivot each artificial-basic row on
// its first nonzero non-artificial column (negating first when the entry
// is negative — the row's rhs is 0, so feasibility is unaffected), or
// drop the row entirely when it is zero over those columns (a redundant
// constraint). Returns the pivots it made.
func driveOutArtificials(t tableau, artCols []bool) int {
	pivots := 0
	for i := 0; i < t.nRows(); i++ {
		if !artCols[t.basic(i)] {
			continue
		}
		piv, sign := t.firstNonzero(i, artCols)
		if piv == -1 {
			t.dropRow(i)
			i--
			continue
		}
		if sign < 0 {
			t.negateRow(i)
		}
		t.pivot(i, piv)
		pivots++
	}
	return pivots
}

// finalBasis snapshots the basic column of every surviving row, in row
// order — the raw material of Solution.Basis.
func finalBasis(t tableau) []int {
	cols := make([]int, t.nRows())
	for i := range cols {
		cols[i] = t.basic(i)
	}
	return cols
}

// SolveCtx optimizes the model and returns an optimal solution, or
// ErrInfeasible / ErrUnbounded. The simplex loop checks ctx between
// pivots and returns an error wrapping ctx.Err() when the context is
// canceled or its deadline expires. A basis offered by StartFrom starts
// the solve warm (cold by default), and the solution records the
// outcome.
func (m *Model) SolveCtx(ctx context.Context) (*Solution, error) {
	nStruct := len(m.names)
	rowsIn := m.normalizedRows()

	// Column layout: structural | slacks | artificials | rhs.
	nSlack := 0
	nArt := 0
	for _, r := range rowsIn {
		if r.sense != Eq {
			nSlack++
		}
		if r.sense != Leq {
			nArt++
		}
	}
	nCols := nStruct + nSlack + nArt
	budget := blandBudget(len(rowsIn), nCols, m.blandOverride)
	fp := structuralFingerprint(nStruct, rowsIn)

	// With a tracer in ctx, each stage below opens a span; undecorated
	// contexts yield nil spans and nil recorders, whose methods no-op.
	_, rowsSpan := obs.StartSpan(ctx, "lp.rows")
	t, artCols, nnz := buildTableau(ctx, rowsIn, nStruct, nSlack, nCols)
	rowsSpan.SetAttr("rows", t.nRows())
	rowsSpan.SetAttr("structural", nStruct)
	rowsSpan.SetAttr("slacks", nSlack)
	rowsSpan.SetAttr("artificials", nArt)
	rowsSpan.SetAttr("nonzeros", nnz)
	rowsSpan.End()

	// Warm start: when the model offers a certified basis whose
	// structural fingerprint matches this model, pivot the tableau
	// directly into that basis. If the rebuilt basis is primal-feasible
	// for the new right-hand side, phase 1 is skipped entirely; otherwise
	// the half-rebuilt tableau is discarded and the untouched cold path
	// runs, so a rejected candidate changes no pivot and no value.
	warmOK := false
	reject := ""
	if start := m.start; start != nil {
		// One lp.warmstart span per offered candidate, attempted or
		// rejected up front. Its attributes are deterministic functions
		// of the scenario and the basis; its time covers the rebuild, the
		// feasibility check and, on a reject, the cold re-assembly.
		_, warmSpan := obs.StartSpan(ctx, "lp.warmstart")
		rebuildPivots := 0
		if reject = start.mismatch(fp, t.nRows(), nCols, artCols); reject == "" {
			var ok bool
			rebuildPivots, ok = rebuildWarmBasis(t, start.cols, nCols)
			warmOK = ok && warmFeasible(t, artCols)
			switch {
			case !ok:
				reject = WarmRejectSingular
			case !warmOK:
				reject = WarmRejectInfeasible
			}
			if !warmOK {
				t, artCols, _ = buildTableau(ctx, rowsIn, nStruct, nSlack, nCols)
			}
		}
		warmSpan.SetAttr("basis", start.Size())
		warmSpan.SetAttr("used", warmOK)
		warmSpan.SetAttr("reject_reason", reject)
		warmSpan.SetAttr("rebuild_pivots", rebuildPivots)
		warmSpan.End()
	}

	// Phase 1: minimize the sum of artificials, i.e. maximize −Σa. The
	// reduced-cost row is +1 on each artificial column, and installing it
	// eliminates the basic ones (each artificial is basic in its row). A
	// feasible warm basis replaces all of this entirely: the eliminations
	// that restored the warm basis are factorization, not simplex
	// iterations, so they live on the lp.warmstart span (rebuild_pivots)
	// and are excluded from every pivot counter — the counters measure
	// search, and a warm start's point is that the search is already done.
	phase1Pivots := 0
	if warmOK {
		// Leftover basic artificials (possible when the originating solve
		// dropped redundant rows) sit at value zero — warmFeasible checked
		// — so the standard drive-out applies.
		phase1Pivots = driveOutArtificials(t, artCols)
		if phase1Pivots > 0 {
			_, p1Span := obs.StartSpan(ctx, "lp.phase1")
			rec := newPivotRecorder(p1Span)
			rec.finish(p1Span, t, phase1Pivots)
			p1Span.End()
		}
	} else if nArt > 0 {
		_, p1Span := obs.StartSpan(ctx, "lp.phase1")
		rec := newPivotRecorder(p1Span)
		var phase1 []colVal
		for c, art := range artCols {
			if art {
				phase1 = append(phase1, colVal{c, scalar{w: 1}})
			}
		}
		t.installObjective(phase1, scalar{w: 1})
		n, err := iterate(ctx, t, budget, rec)
		if err != nil {
			if errors.Is(err, ErrUnbounded) {
				// Phase 1 objective is bounded (≥ −Σb); unbounded here means
				// a solver bug, surface it loudly.
				panic("lp: phase 1 unbounded: " + err.Error())
			}
			return nil, err
		}
		// Optimal phase-1 value is −(sum of artificials); feasible iff 0.
		if t.objValue().Sign() != 0 {
			return nil, ErrInfeasible
		}
		phase1Pivots = n + driveOutArtificials(t, artCols)
		rec.finish(p1Span, t, phase1Pivots)
		p1Span.End()
	}

	// Phase 2: the real objective, on Dantzig's rule with a fresh pivot
	// budget. Phase 1 may have tripped the cycling heuristic on a
	// degenerate basis; that suspicion does not carry over to the new
	// objective, and iterate counts only its own phase's pivots (otherwise
	// one degenerate phase 1 would force Bland's slow lowest-index rule on
	// the entire optimization). The reduced-cost row is −c, and installing
	// it eliminates the basic columns.
	var negObj Expr
	for v := 0; v < nStruct; v++ {
		c, ok := m.obj[Var(v)]
		if !ok || c.Sign() == 0 {
			continue
		}
		if m.maximize {
			c = rat.Neg(c)
		}
		negObj = append(negObj, Term{Var: Var(v), Coeff: c})
	}
	objEntries, objDen, _ := scaleRow(nil, negObj, rat.Zero())
	_, p2Span := obs.StartSpan(ctx, "lp.phase2")
	rec2 := newPivotRecorder(p2Span)
	if nArt > 0 {
		// Every artificial is nonbasic at zero now and must stay there:
		// drop them, so phase 2 neither updates nor counts their entries.
		t.dropColumns(artCols)
	}
	t.installObjective(objEntries, objDen)
	phase2Pivots, err := iterate(ctx, t, budget, rec2)
	if err != nil {
		return nil, err
	}
	rec2.finish(p2Span, t, phase2Pivots)
	p2Span.End()

	// Extract the solution.
	vals := make([]rat.Rat, nStruct)
	for v := range vals {
		vals[v] = rat.Zero()
	}
	for i := 0; i < t.nRows(); i++ {
		if b := t.basic(i); b < nStruct {
			vals[b] = t.value(i)
		}
	}
	objVal := t.objValue()
	if !m.maximize {
		objVal = rat.Neg(objVal)
	}
	sol := &Solution{
		model:            m,
		Objective:        objVal,
		values:           vals,
		Iterations:       phase1Pivots + phase2Pivots,
		Phase1Iterations: phase1Pivots,
		WarmUsed:         warmOK,
		WarmReject:       reject,
		basis:            &Basis{cols: finalBasis(t), fingerprint: fp, nCols: nCols, originPhase1: phase1Pivots},
	}
	if warmOK {
		// A warm-started solve spends (near) zero phase-1 pivots of its
		// own, so its basis inherits the cold ancestor's (Solution.Basis).
		sol.WarmPivotsSaved = max(m.start.originPhase1-phase1Pivots, 0)
		sol.basis.originPhase1 = max(phase1Pivots, m.start.originPhase1)
	}
	return sol, nil
}
