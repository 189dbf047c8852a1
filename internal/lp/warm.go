package lp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/lru"
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
// The contract is intentionally narrow. A Basis can only be minted by
// Solution.Basis() — it is a snapshot of a basis the simplex actually
// certified — and it re-enters a solve only through WithWarmBasis. The
// basisflow analyzer enforces exactly this in the solver packages.

// Warm-start rejection reasons, recorded on WarmStart.RejectReason and in
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
// the model it solved and the pivot counters of the originating solve
// (used to report lp_warm_pivots_saved). Values are immutable once
// minted; Solution.Basis is the only constructor.
type Basis struct {
	cols         []int
	fingerprint  string
	nCols        int
	originPhase1 int
	originTotal  int
}

// Size returns the number of basic columns in the snapshot.
func (b *Basis) Size() int { return len(b.cols) }

// Fingerprint returns the structural fingerprint of the model the basis
// was minted from. A warm start is attempted only when the incoming
// model's fingerprint matches exactly.
func (b *Basis) Fingerprint() string { return b.fingerprint }

// Basis snapshots the solution's certified basis for reuse by a later
// WithWarmBasis solve. Returns nil when the solution predates basis
// tracking (zero value).
func (s *Solution) Basis() *Basis {
	if s.basisCols == nil {
		return nil
	}
	return &Basis{
		cols:         append([]int(nil), s.basisCols...),
		fingerprint:  s.fingerprint,
		nCols:        s.nCols,
		originPhase1: s.Phase1Iterations,
		originTotal:  s.Iterations,
	}
}

// WarmStart is the per-solve warm-start handoff carried by the context:
// the caller supplies a candidate Basis, and the solve writes back what
// happened (used or rejected, pivots saved, and the freshly certified
// Final basis for the cache). One WarmStart serves exactly one
// Model.SolveCtx — the first solve under the context consumes it.
type WarmStart struct {
	// Basis is the candidate starting basis; nil means "no candidate yet,
	// but record the final basis" (the first solve of a chain).
	Basis *Basis

	// Used reports whether the solve actually started from Basis.
	Used bool
	// RejectReason is the WarmReject* constant explaining a declined
	// candidate; empty when Used, and empty when no candidate was offered.
	RejectReason string
	// PivotsSaved estimates the phase-1 pivots avoided relative to the
	// originating solve (origin phase-1 pivots minus this solve's, floored
	// at zero); meaningful only when Used.
	PivotsSaved int
	// Final is the certified basis of this solve, for the caller's cache.
	Final *Basis

	taken bool
}

// warmCtxKey carries the warm-start handoff through a context.
type warmCtxKey struct{}

// WithWarmBasis returns a context that offers ws to the next
// Model.SolveCtx beneath it. The decoration travels the whole solver
// stack, but the handoff is consumed by exactly one solve (steady-state
// solves run one LP per session solve, so the solve that consumes it is
// the solve the caller meant).
func WithWarmBasis(ctx context.Context, ws *WarmStart) context.Context {
	return context.WithValue(ctx, warmCtxKey{}, ws)
}

// warmTake claims the context's warm-start handoff, or nil when absent or
// already consumed by an earlier solve under the same context.
func warmTake(ctx context.Context) *WarmStart {
	ws, ok := ctx.Value(warmCtxKey{}).(*WarmStart)
	if !ok || ws == nil || ws.taken {
		return nil
	}
	ws.taken = true
	return ws
}

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

// warmAttempt is the solve-local state of one warm-start attempt.
type warmAttempt struct {
	ws     *WarmStart
	cols   []int  // validated candidate basis, nil when rejected up front
	reason string // WarmReject* when the candidate was rejected
}

// checkWarmBasis validates the context's warm candidate against the
// incoming model's fingerprint and tableau shape. A nil return means no
// handoff was present at all.
func checkWarmBasis(ws *WarmStart, fp string, nRows, nCols int, artCols []bool) *warmAttempt {
	if ws == nil {
		return nil
	}
	w := &warmAttempt{ws: ws}
	b := ws.Basis
	if b == nil {
		return w
	}
	if b.fingerprint != fp {
		w.reason = WarmRejectFingerprint
		return w
	}
	if b.nCols != nCols || len(b.cols) > nRows {
		w.reason = WarmRejectShape
		return w
	}
	for _, c := range b.cols {
		if c < 0 || c >= nCols || artCols[c] {
			w.reason = WarmRejectShape
			return w
		}
	}
	w.cols = b.cols
	return w
}

// rebuildWarmBasis pivots the candidate basic columns into a freshly
// assembled tableau (Gauss-Jordan, no ratio test). Wanted columns arrive
// in the order given; each one not yet basic is pivoted into the
// shortest eligible row — fewest stored entries, ties to the lowest row
// index — where a row is eligible when its current basic column is not
// itself wanted and its entry in the wanted column is nonzero (the row is
// negated first when the entry is negative, keeping the pivot strictly
// positive). The row choice changes only the fill along the way: each
// rebuilt row is B⁻¹A for its basic column, so the final tableau is the
// same up to row order, and later pivots ignore row order (entering reads
// only the objective row, leaving breaks ratio ties on the basic column).
// Returns false when some wanted column has no eligible row: the recorded
// basis is singular for the new coefficients.
func rebuildWarmBasis(t tableau, want []int, nCols int) bool {
	wanted := make([]bool, nCols)
	for _, c := range want {
		wanted[c] = true
	}
	isBasic := make([]bool, nCols)
	for i := 0; i < t.nRows(); i++ {
		isBasic[t.basic(i)] = true
	}
	for _, c := range want {
		if isBasic[c] {
			continue
		}
		pick, pickLen := -1, 0
		for i := 0; i < t.nRows(); i++ {
			if wanted[t.basic(i)] {
				continue
			}
			if n := t.rowLen(i); (pick < 0 || n < pickLen) && t.colSign(i, c) != 0 {
				pick, pickLen = i, n
			}
		}
		if pick < 0 {
			return false
		}
		if t.colSign(pick, c) < 0 {
			t.negateRow(pick)
		}
		isBasic[t.basic(pick)] = false
		t.pivot(pick, c)
		isBasic[c] = true
	}
	return true
}

// warmFeasible reports whether the rebuilt basis is primal-feasible for
// the new right-hand side: every row's rhs is nonnegative and any
// leftover basic artificial sits at value zero (so the artificial
// drive-out loop can remove it without moving the vertex).
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

// finish writes the attempt's outcome and the solution's certified basis
// back onto the handoff.
func (w *warmAttempt) finish(sol *Solution, used bool, reason string, phase1Pivots int) {
	saved := 0
	if used && w.ws.Basis != nil {
		saved = max(w.ws.Basis.originPhase1-phase1Pivots, 0)
	}
	w.ws.Used, w.ws.RejectReason, w.ws.PivotsSaved = used, reason, saved
	w.ws.Final = sol.Basis()
	if used && w.ws.Final != nil && w.ws.Basis != nil {
		// A warm-started solve spends (near) zero phase-1 pivots of its
		// own, so its Final basis inherits the ancestral cold cost: down a
		// chain of perturbed re-solves, every warm start reports its
		// savings against the chain head's cold phase 1, not against its
		// already-warm predecessor.
		if w.ws.Basis.originPhase1 > w.ws.Final.originPhase1 {
			w.ws.Final.originPhase1 = w.ws.Basis.originPhase1
			w.ws.Final.originTotal = w.ws.Basis.originTotal
		}
	}
}

// BasisCache is a bounded LRU of certified bases, keyed by the caller's
// notion of "same problem shape" (the steady-state Solver keys it by node
// count and canonical spec key, deliberately coarser than the platform
// content hash so perturbed platforms still hit — the fingerprint check
// inside the solve is what guarantees safety). A zero or negative
// capacity stores nothing, and a nil cache is inert. Safe for concurrent
// use.
type BasisCache = lru.Cache[*Basis]
