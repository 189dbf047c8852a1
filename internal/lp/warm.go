package lp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Warm-start machinery: a solved LP's optimal basis is a reusable asset.
// When the same model structure re-arrives with perturbed coefficients
// (edge-cost jitter, capacity scaling — the steady-state re-solve after a
// platform drift), rebuilding the tableau directly in the previous optimal
// basis usually lands primal-feasible, phase 1 is skipped entirely, and
// phase 2 re-prices the objective from a near-optimal vertex. Everything
// stays exact: a warm start changes only the pivot path taken to the
// optimum, never the arithmetic, so warm and cold solves agree on the
// optimal objective bit for bit.
//
// The contract is intentionally narrow. A Basis is minted only by
// Solution.Basis() — it is a snapshot of a basis the simplex actually
// certified — and it enters a solve only through Model.StartFrom, whose
// outcome the solve reports on its Solution. Basis fields are
// unexported, so the only basis code outside this package can build is
// the zero value: its empty fingerprint matches no model, and a solve
// offered one runs cold and reports WarmRejectFingerprint.

// Warm-start rejection reasons, recorded on Solution.WarmReject and in
// Report/metrics reject histograms. Stable strings: they are compared in
// tests and aggregated across sweeps.
const (
	// WarmRejectFingerprint marks a structural mismatch: the incoming
	// model's rows/columns differ from the ones the basis was minted for
	// (e.g. an edge was deleted, changing the LP's sparsity structure).
	WarmRejectFingerprint = "fingerprint_mismatch"
	// WarmRejectShape marks a basis whose column indices or row count
	// cannot fit the incoming tableau at all (defensive; a fingerprint
	// match makes this unreachable in practice).
	WarmRejectShape = "shape_mismatch"
	// WarmRejectSingular marks a basis that could not be pivoted back in:
	// some recorded basic column had no eligible pivot row left.
	WarmRejectSingular = "singular_basis"
	// WarmRejectInfeasible marks a structurally valid basis that is not
	// primal-feasible for the new right-hand side; the solve fell back to
	// a cold phase 1.
	WarmRejectInfeasible = "infeasible_basis"
)

// Basis is a snapshot of a certified simplex basis: the basic column per
// surviving tableau row, in row order, plus the structural fingerprint of
// the model it solved and the phase-1 pivots of its cold ancestor (used
// to report Solution.WarmPivotsSaved). Values are immutable once minted;
// a solve is the only constructor (Solution.Basis).
type Basis struct {
	cols         []int
	fingerprint  string
	nCols        int
	originPhase1 int
}

// Size returns the number of basic columns in the snapshot.
func (b *Basis) Size() int { return len(b.cols) }

// Basis returns the solution's certified final basis, for a later solve
// to start from (Model.StartFrom); nil for the zero Solution. The basis
// of a warm-started solve inherits its cold ancestor's phase-1 pivot
// count: down a chain of perturbed re-solves, every warm start reports
// its savings against the chain head's cold phase 1, not against its
// already-warm predecessor.
func (s *Solution) Basis() *Basis { return s.basis }

// StartFrom offers b as the starting basis of the model's solves: a
// SolveCtx whose structure matches b's fingerprint pivots the fresh
// tableau straight into b and, when that basis is primal-feasible,
// skips phase 1. A basis that does not fit is rejected and the solve
// runs cold; either way the outcome is on the Solution (WarmUsed,
// WarmReject, WarmPivotsSaved). Nil, the default, solves cold.
func (m *Model) StartFrom(b *Basis) { m.start = b }

// structuralFingerprint hashes the model structure the simplex actually
// sees: the normalized row list (senses and sorted variable ids per row,
// after right-hand-side sign normalization) and the column layout counts.
// Coefficient and RHS *values* are deliberately excluded — a warm start
// is exactly the case of same structure, different numbers — while any
// structural drift (row added, variable gone, a sense flipped by an RHS
// sign change) changes the fingerprint and rejects the basis.
func structuralFingerprint(nStruct int, rows []normRow) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) {
		n := binary.PutVarint(buf[:], int64(v))
		h.Write(buf[:n])
	}
	put(nStruct)
	put(len(rows))
	for _, r := range rows {
		put(int(r.sense))
		put(len(r.terms))
		for _, t := range r.terms {
			put(int(t.Var))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// mismatch returns the WarmReject* reason why b cannot start a solve of
// the model with fingerprint fp on a tableau of nRows rows and nCols
// columns, or "" when it fits.
func (b *Basis) mismatch(fp string, nRows, nCols int, artCols []bool) string {
	if b.fingerprint != fp {
		return WarmRejectFingerprint
	}
	if b.nCols != nCols || len(b.cols) > nRows {
		return WarmRejectShape
	}
	for _, c := range b.cols {
		if c < 0 || c >= nCols || artCols[c] {
			return WarmRejectShape
		}
	}
	return ""
}

// rebuildWarmBasis pivots the candidate basic columns into a freshly
// assembled tableau (no ratio test). Wanted columns arrive in the order
// given; each one not yet basic is pivoted into the shortest eligible row
// — fewest stored entries, ties to the lowest row index — where a row is
// eligible when its current basic column is not itself wanted and its
// entry in the wanted column is nonzero (the row is negated first when
// the entry is negative, keeping the pivot strictly positive). Only the
// rows the tableau lists under the column (rowsOf) can hold it, so only
// they are probed. The row choice changes only the fill along the way:
// each rebuilt row is B⁻¹A for its basic column, so the final tableau is
// the same up to row order, and later pivots ignore row order (entering
// reads only the objective row, leaving breaks ratio ties on the basic
// column).
//
// The rebuild eliminates forward only (pivotForward): a pivot updates
// the rows that may still take a wanted column, the only rows a later
// pick reads, so every pick is the one Gauss-Jordan elimination makes,
// and the rows already basic in a wanted column may wait. Each waiting
// row holds only the basic columns of rows that entered after its own,
// so the tableau reads the basic values by back-substitution over the rhs
// column, installs the objective by forward substitution, and settles the
// waiting rows only for phase 2's first ratio test. A solve that is
// optimal once the objective is installed never forms the rest of B⁻¹A.
// Returns the pivots made, and false when some wanted column has no
// eligible row: the recorded basis is singular for the new coefficients.
func rebuildWarmBasis(t tableau, want []int, nCols int) (int, bool) {
	wanted := make([]bool, nCols)
	for _, c := range want {
		wanted[c] = true
	}
	isBasic := make([]bool, nCols)
	for i := 0; i < t.nRows(); i++ {
		isBasic[t.basic(i)] = true
	}
	pivots := 0
	for _, c := range want {
		if isBasic[c] {
			continue
		}
		pick, pickLen := -1, 0
		for _, li := range t.rowsOf(c) {
			i := int(li)
			if wanted[t.basic(i)] {
				continue
			}
			if n := t.rowLen(i); (pick < 0 || n < pickLen || n == pickLen && i < pick) && t.colSign(i, c) != 0 {
				pick, pickLen = i, n
			}
		}
		if pick < 0 {
			return pivots, false
		}
		if t.colSign(pick, c) < 0 {
			t.negateRow(pick)
		}
		isBasic[t.basic(pick)] = false
		t.pivotForward(pick, c, wanted)
		pivots++
		isBasic[c] = true
	}
	return pivots, true
}

// warmFeasible reports whether the rebuilt basis is primal-feasible for
// the new right-hand side: every row's basic value is nonnegative and any
// leftover basic artificial sits at value zero (so the artificial
// drive-out loop can remove it without moving the vertex). The values are
// x_B = B⁻¹b, read while the rebuild's rows still wait, so a rejected
// basis costs the forward elimination alone.
func warmFeasible(t tableau, artCols []bool) bool {
	for i := 0; i < t.nRows(); i++ {
		s := t.rowRHSSign(i)
		if s < 0 {
			return false
		}
		if s != 0 && artCols[t.basic(i)] {
			return false
		}
	}
	return true
}
