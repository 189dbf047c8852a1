package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/obs"
	"repro/internal/rat"
)

// colVal is one nonzero tableau entry under construction: the column index
// and the integer numerator (the row's shared denominator travels
// alongside). Rows are assembled with strictly increasing columns.
type colVal struct {
	col int
	num *big.Int
}

// tableau is the pivoting storage of the two-phase simplex. The driver in
// SolveCtx owns the phase logic (row assembly, phase-1 artificials, the
// drive-out loop, phase-2 objective installation, extraction); the
// implementation owns entry storage and the pivot arithmetic. The sparse
// tableau (sparse.go) is the only production implementation. The
// interface is the seam through which this package's tests substitute
// the dense reference tableau (dense_test.go), which must pick identical
// entering/leaving columns on identical states so that dense and sparse
// solves are bit-equivalent — the equivalence tests pin this.
type tableau interface {
	// addRow appends a constraint row with the given sorted nonzero
	// entries (including the rhs column) over denominator den, with the
	// column basic initially basic in it.
	addRow(entries []colVal, den *big.Int, basic int)
	// nRows returns the current row count (rows can be dropped).
	nRows() int
	// basic returns the column basic in row i.
	basic(i int) int
	// entering picks the entering column (Dantzig, falling back to Bland
	// after the pivot budget), or -1 at optimality.
	entering() int
	// leaving runs the ratio test for column c, or -1 when unbounded.
	leaving(c int) int
	// pivot performs a Gauss-Jordan pivot at (pr, pc); the entry must be
	// strictly positive.
	pivot(pr, pc int)
	// pivotCount returns the pivots performed so far.
	pivotCount() int
	// resetRule restarts the cycling heuristic for a new phase: Dantzig's
	// rule with a fresh budget of extra pivots on top of those spent.
	resetRule(budget int)
	// installPhase1 installs the phase-1 objective (minimize the sum of
	// artificials) and eliminates the basic artificial columns.
	installPhase1(art []bool)
	// installObjective installs a reduced-cost row from the given sorted
	// entries over den and eliminates the basic columns.
	installObjective(entries []colVal, den *big.Int)
	// objRHSSign returns the sign of the objective row's rhs entry.
	objRHSSign() int
	// firstNonzero returns the first column (ascending, excluding rhs)
	// with a nonzero entry in row i among columns not skipped, and the
	// entry's sign; (-1, 0) when the row is zero over those columns.
	firstNonzero(i int, skip []bool) (col, sign int)
	// colSign returns the sign of row i's entry in column c — the warm
	// basis rebuild's pivot-row probe. Both implementations answer from
	// the same normalized rows, so the rebuild is representation-invariant.
	colSign(i, c int) int
	// negateRow flips the sign of every entry of row i.
	negateRow(i int)
	// dropRow removes row i (and its basis slot).
	dropRow(i int)
	// markDead excludes the flagged columns from future entering picks.
	markDead(cols []bool)
	// value returns the rhs value of row i as an exact rational.
	value(i int) rat.Rat
	// objValue returns the objective row's rhs as an exact rational.
	objValue() rat.Rat
	// blandActive reports whether the cycling fallback (Bland's rule) has
	// engaged in the current phase — a tracing observer.
	blandActive() bool
	// rowRHSSign returns the sign of row i's rhs entry (0 marks the
	// degenerate pivots a tracing observer counts).
	rowRHSSign(i int) int
	// nonzeros counts the nonzero entries across constraint rows (rhs
	// column included, objective row excluded). Both implementations
	// normalize rows identically, so their counts agree entry for entry.
	nonzeros() int
}

// tableauCtxKey carries a substitute tableau constructor through a
// context. Only this package's tests set it (export_test.go).
type tableauCtxKey struct{}

// newTableau builds the sparse tableau, or the substitute the context
// carries.
func newTableau(ctx context.Context, nCols, blandAfter int) tableau {
	if mk, ok := ctx.Value(tableauCtxKey{}).(func(nCols, blandAfter int) tableau); ok {
		return mk(nCols, blandAfter)
	}
	return newSparseTableau(nCols, blandAfter)
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

// iterate pivots until optimality, unboundedness or context cancellation.
// Each pivot is dominated by big.Int row arithmetic, so a per-pivot
// cancellation check costs nothing measurable. rec, when non-nil, observes
// every pivot for the solve trace; with no tracer installed rec is nil and
// the loop's only added cost is one pointer comparison per pivot
// (allocation-free, pinned by TestNoTracerPivotLoopAllocationFree).
func iterate(ctx context.Context, t tableau, rec *pivotRecorder) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lp: interrupted after %d pivots: %w", t.pivotCount(), err)
		}
		c := t.entering()
		if c < 0 {
			return nil
		}
		r := t.leaving(c)
		if r < 0 {
			return ErrUnbounded
		}
		if rec != nil {
			rec.observe(t, r)
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
// artificials | rhs. Returns the tableau and the artificial-column mask.
func buildTableau(ctx context.Context, rowsIn []normRow, nStruct, nSlack, nCols, budget int) (tableau, []bool) {
	t := newTableau(ctx, nCols, budget)
	slackAt := nStruct
	artAt := nStruct + nSlack
	artCols := make([]bool, nCols)
	for _, rin := range rowsIn {
		coeffs := make([]rat.Rat, 0, len(rin.terms)+1)
		for _, term := range rin.terms {
			coeffs = append(coeffs, term.Coeff)
		}
		den := rat.DenominatorLCM(append(coeffs, rin.rhs)...)
		entries := make([]colVal, 0, len(rin.terms)+2)
		for _, term := range rin.terms {
			entries = append(entries, colVal{int(term.Var), rat.ScaleToInt(term.Coeff, den)})
		}
		basic := -1
		switch rin.sense {
		case Leq:
			entries = append(entries, colVal{slackAt, new(big.Int).Set(den)}) // +1 slack
			basic = slackAt
			slackAt++
		case Geq:
			entries = append(entries, colVal{slackAt, new(big.Int).Neg(den)}) // -1 surplus
			slackAt++
			entries = append(entries, colVal{artAt, new(big.Int).Set(den)}) // +1 artificial
			basic = artAt
			artCols[artAt] = true
			artAt++
		case Eq:
			entries = append(entries, colVal{artAt, new(big.Int).Set(den)})
			basic = artAt
			artCols[artAt] = true
			artAt++
		}
		if rin.rhs.Sign() != 0 {
			entries = append(entries, colVal{nCols, rat.ScaleToInt(rin.rhs, den)})
		}
		t.addRow(entries, den, basic)
	}
	return t, artCols
}

// driveOutArtificials removes every artificial column from the basis once
// all artificials sit at value zero: pivot each artificial-basic row on
// its first nonzero non-artificial column (negating first when the entry
// is negative — the row's rhs is 0, so feasibility is unaffected), or
// drop the row entirely when it is zero over those columns (a redundant
// constraint).
func driveOutArtificials(t tableau, artCols []bool) {
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
	}
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
// canceled or its deadline expires. The context may also offer a
// warm-start basis (WithWarmBasis; cold by default).
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
	t, artCols := buildTableau(ctx, rowsIn, nStruct, nSlack, nCols, budget)
	rowsSpan.SetAttr("rows", t.nRows())
	rowsSpan.SetAttr("structural", nStruct)
	rowsSpan.SetAttr("slacks", nSlack)
	rowsSpan.SetAttr("artificials", nArt)
	rowsSpan.SetAttr("nonzeros", t.nonzeros())
	rowsSpan.End()

	// Warm start: when the context offers a certified basis whose
	// structural fingerprint matches this model, pivot the tableau
	// directly into that basis. If the rebuilt basis is primal-feasible
	// for the new right-hand side, phase 1 is skipped entirely; otherwise
	// the half-rebuilt tableau is discarded and the untouched cold path
	// runs, so a rejected candidate changes no pivot and no value.
	warm := checkWarmBasis(warmTake(ctx), fp, t.nRows(), nCols, artCols)
	warmOK := false
	rebuildPivots := 0
	if warm != nil && warm.cols != nil {
		ok := rebuildWarmBasis(t, warm.cols, nCols)
		warmOK = ok && warmFeasible(t, artCols)
		switch {
		case !ok:
			warm.reason = WarmRejectSingular
		case !warmOK:
			warm.reason = WarmRejectInfeasible
		}
		rebuildPivots = t.pivotCount()
		warmSpan(ctx, len(warm.cols), warmOK, warm.reason, rebuildPivots)
		if !warmOK {
			t, artCols = buildTableau(ctx, rowsIn, nStruct, nSlack, nCols, budget)
			rebuildPivots = 0
		}
	} else if warm != nil && warm.ws.Basis != nil {
		warmSpan(ctx, warm.ws.Basis.Size(), false, warm.reason, 0)
	}

	// Phase 1: minimize the sum of artificials, i.e. maximize −Σa. The
	// reduced-cost row starts as +1 on artificial columns, then basic
	// columns are eliminated (each artificial is basic in its row). A
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
		driveOutArtificials(t, artCols)
		t.markDead(artCols)
		phase1Pivots = t.pivotCount() - rebuildPivots
		if phase1Pivots > 0 {
			_, p1Span := obs.StartSpan(ctx, "lp.phase1")
			rec := newPivotRecorder(p1Span, nCols+1)
			rec.finish(p1Span, t, phase1Pivots)
			p1Span.End()
		}
	} else if nArt > 0 {
		_, p1Span := obs.StartSpan(ctx, "lp.phase1")
		rec := newPivotRecorder(p1Span, nCols+1)
		t.installPhase1(artCols)
		if err := iterate(ctx, t, rec); err != nil {
			if errors.Is(err, ErrUnbounded) {
				// Phase 1 objective is bounded (≥ −Σb); unbounded here means
				// a solver bug, surface it loudly.
				panic("lp: phase 1 unbounded: " + err.Error())
			}
			return nil, err
		}
		// Optimal phase-1 value is −(sum of artificials); feasible iff 0.
		if t.objRHSSign() != 0 {
			return nil, ErrInfeasible
		}
		driveOutArtificials(t, artCols)
		t.markDead(artCols)
		phase1Pivots = t.pivotCount()
		rec.finish(p1Span, t, phase1Pivots)
		p1Span.End()
	}

	// Phase 2: the real objective. Phase 1 may have tripped the cycling
	// heuristic on a degenerate basis; that suspicion does not carry over to
	// the new objective, so phase 2 restarts on Dantzig's rule with a fresh
	// pivot budget (otherwise one degenerate phase 1 would force Bland's
	// slow lowest-index rule on the entire optimization).
	t.resetRule(budget)

	// Build the reduced-cost row −c and eliminate the basic columns.
	objDen := rat.DenominatorLCM(values(m.obj)...)
	objEntries := make([]colVal, 0, len(m.obj))
	for v := 0; v < nStruct; v++ {
		c, ok := m.obj[Var(v)]
		if !ok || c.Sign() == 0 {
			continue
		}
		cc := c
		if !m.maximize {
			cc = rat.Neg(c)
		}
		objEntries = append(objEntries, colVal{v, new(big.Int).Neg(rat.ScaleToInt(cc, objDen))})
	}
	_, p2Span := obs.StartSpan(ctx, "lp.phase2")
	rec2 := newPivotRecorder(p2Span, nCols+1)
	t.installObjective(objEntries, objDen)
	if err := iterate(ctx, t, rec2); err != nil {
		return nil, err
	}
	rec2.finish(p2Span, t, t.pivotCount()-rebuildPivots-phase1Pivots)
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
		Iterations:       t.pivotCount() - rebuildPivots,
		Phase1Iterations: phase1Pivots,
		basisCols:        finalBasis(t),
		fingerprint:      fp,
		nCols:            nCols,
	}
	if warm != nil {
		warm.finish(sol, warmOK, warm.reason, phase1Pivots)
	}
	return sol, nil
}

// values collects the values of a map in unspecified order.
func values[K comparable, V any](m map[K]V) []V {
	out := make([]V, 0, len(m))
	for _, v := range m {
		out = append(out, v) //sslint:allow order-insensitive by contract: sole consumer is DenominatorLCM
	}
	return out
}
