package lp

import (
	"repro/internal/obs"
)

// pivotRecorder accumulates the per-pivot events of one simplex phase
// for the solve trace: the Dantzig/Bland entering split, Bland
// activations and degenerate pivots (leaving row with zero rhs). It
// reads only what the pivot loop has already decided, so a traced solve
// makes exactly the tableau calls an untraced one makes. A nil recorder
// is the off switch — iterate guards every observation behind one nil
// check, so an untraced solve stays allocation-free in the pivot loop.
type pivotRecorder struct {
	pivots           int // pivots observed by the iterate loop this phase
	degenerate       int
	dantzig          int
	bland            int
	blandActivations int
	blandWasActive   bool
}

// newPivotRecorder returns a recorder feeding the span, or nil when the
// span is nil (no tracer in the context).
func newPivotRecorder(span *obs.Span) *pivotRecorder {
	if span == nil {
		return nil
	}
	return &pivotRecorder{}
}

// observe records one pivot about to happen: the entering rule (Bland's
// when bland is set) and the leaving row r's degeneracy.
func (rec *pivotRecorder) observe(t tableau, bland bool, r int) {
	if bland {
		rec.bland++
		if !rec.blandWasActive {
			rec.blandWasActive = true
			rec.blandActivations++
		}
	} else {
		rec.dantzig++
	}
	if t.rowRHSSign(r) == 0 {
		rec.degenerate++
	}
	rec.pivots++
}

// finish writes the phase's attributes onto its span. phasePivots is
// the phase's total pivot count by the driver's accounting — for phase
// 1 it includes the artificial drive-out pivots performed outside the
// iterate loop, so the span reconciles exactly with
// Solution.Phase1Iterations (and sweep's lp_phase1_pivots).
func (rec *pivotRecorder) finish(span *obs.Span, t tableau, phasePivots int) {
	if rec == nil {
		return
	}
	span.SetAttr("pivots", phasePivots)
	span.SetAttr("driveout_pivots", phasePivots-rec.pivots)
	span.SetAttr("degenerate_pivots", rec.degenerate)
	span.SetAttr("dantzig_pivots", rec.dantzig)
	span.SetAttr("bland_pivots", rec.bland)
	span.SetAttr("bland_activations", rec.blandActivations)
	span.SetAttr("objective", t.objValue().RatString())
}
