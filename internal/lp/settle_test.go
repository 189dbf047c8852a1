package lp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rat"
)

// WarmSettles records what became of the rows one sparse tableau's warm
// rebuild left waiting: how many waited, how many row reads compared
// their basic values with a settled copy's while they waited, the pivots
// before the objective was installed (the drive-out) and after it (phase
// 2), and the calls that settled the waiting rows ("leaving 1" for the
// first ratio test).
type WarmSettles struct {
	Waiting, Checked, DriveOutPivots, Phase2Pivots int
	SettledIn                                      []string
}

// settleProbe is the sparse tableau with the warm rebuild's waiting rows
// watched. While rows wait, the first read of a basic value after each
// change compares every row's value and rhs sign with a settled copy's,
// failing the test at the first difference; and every call that settles
// the waiting rows is recorded.
type settleProbe struct {
	*sparseTableau
	t       *testing.T
	rec     *WarmSettles
	ratios  *int
	checked *bool
}

// WithSettleProbe returns a context under which every Model.SolveCtx
// runs on a settleProbe, appending one record per tableau to recs (a
// solve whose warm basis is rejected builds two). Like WithDenseTableau,
// only this package's test binary can see it.
func WithSettleProbe(ctx context.Context, t *testing.T, recs *[]*WarmSettles) context.Context {
	return context.WithValue(ctx, tableauCtxKey{}, func(nCols int) tableau {
		rec := &WarmSettles{}
		*recs = append(*recs, rec)
		return settleProbe{newSparseTableau(nCols), t, rec, new(int), new(bool)}
	})
}

// waiting reports whether rows the warm rebuild left waiting are pending.
func (p settleProbe) waiting() bool { return len(p.order) > 0 && len(p.stale) > 0 }

// settling runs call, recording it as name when it settles waiting rows.
func (p settleProbe) settling(name string, call func()) {
	before := p.waiting()
	call()
	if before && !p.waiting() {
		p.rec.SettledIn = append(p.rec.SettledIn, name)
	}
}

// check compares every row's basic value and rhs sign with a settled
// copy's, once after each change while rows wait.
func (p settleProbe) check() {
	if !p.waiting() || *p.checked {
		return
	}
	*p.checked = true
	c := settledCopy(p.sparseTableau)
	for i := range p.rows {
		if got, want := p.sparseTableau.value(i), c.value(i); !rat.Eq(got, want) {
			p.t.Fatalf("row %d waits with value %s, settles to %s", i, got.RatString(), want.RatString())
		}
		if got, want := p.sparseTableau.rowRHSSign(i), c.rowRHSSign(i); got != want {
			p.t.Fatalf("row %d waits with rhs sign %d, settles to %d", i, got, want)
		}
		p.rec.Checked++
	}
}

func (p settleProbe) value(i int) rat.Rat {
	p.check()
	return p.sparseTableau.value(i)
}

func (p settleProbe) rowRHSSign(i int) int {
	p.check()
	return p.sparseTableau.rowRHSSign(i)
}

func (p settleProbe) pivotForward(pr, pc int, wanted []bool) {
	before := len(p.stale)
	p.sparseTableau.pivotForward(pr, pc, wanted)
	p.rec.Waiting += len(p.stale) - before
	*p.checked = false
}

func (p settleProbe) pivot(pr, pc int) {
	if p.obj == nil {
		p.rec.DriveOutPivots++
	} else {
		p.rec.Phase2Pivots++
	}
	p.settling("pivot", func() { p.sparseTableau.pivot(pr, pc) })
}

func (p settleProbe) leaving(c int) (r int) {
	*p.ratios++
	p.settling(fmt.Sprintf("leaving %d", *p.ratios), func() { r = p.sparseTableau.leaving(c) })
	return r
}

func (p settleProbe) dropRow(i int) {
	p.settling("dropRow", func() { p.sparseTableau.dropRow(i) })
}

func (p settleProbe) dropColumns(cols []bool) {
	p.sparseTableau.dropColumns(cols)
	*p.checked = false
}

// SettleTally counts, over the solves CheckWarmSettles checked, the warm
// solves whose rows waited through to the answer, those that settled
// them for phase 2, and the row reads compared with a settled copy.
type SettleTally struct{ AtOnce, ForPhase2, Checked int }

// CheckWarmSettles fails t unless the records of one solve show a warm
// rebuild that settles its waiting rows only when it must: a rebuild
// whose basis was rejected settles none; the used one settles none when
// no pivot follows it, settles once, in the first ratio test, when phase
// 2 pivots, and settles once, before the first drive-out pivot, when
// leftover artificials are driven out. It adds the solve to n.
func CheckWarmSettles(t *testing.T, label string, recs []*WarmSettles, warmUsed bool, n *SettleTally) {
	t.Helper()
	for k, r := range recs {
		var want []string
		switch used := warmUsed && k == len(recs)-1; {
		case !used || r.Waiting == 0:
		case r.DriveOutPivots > 0:
			want = []string{"pivot"}
		case r.Phase2Pivots > 0:
			want = []string{"leaving 1"}
			n.ForPhase2++
		default:
			n.AtOnce++
		}
		if !slices.Equal(r.SettledIn, want) {
			t.Fatalf("%s: tableau %d of %d (warm used %v): %+v, want the waiting rows settled in %v",
				label, k+1, len(recs), warmUsed, *r, want)
		}
		n.Checked += r.Checked
	}
}

// TestWarmSettlesOnlyForPhase2 warm-solves randomWarmModel's LPs on the
// settle probe, each from its cold basis twice: with every coefficient
// scaled by 21/20, as TestWarmPerturbedEquivalence perturbs them, and
// with its objective negated. Every solve must settle the rebuild's
// waiting rows only as CheckWarmSettles allows, every waiting row must
// read its settled value, and the seeds must hold solves that are optimal
// at once and solves that pivot in phase 2. TestWarmSettlesOnlyForPhase2Chain
// runs the same check on the seed-42 scatter chain.
func TestWarmSettlesOnlyForPhase2(t *testing.T) {
	var recs []*WarmSettles
	ctx := WithSettleProbe(context.Background(), t, &recs)
	rng := rand.New(rand.NewSource(11))
	var n SettleTally
	for trial := 0; trial < 200; trial++ {
		seed := rng.Int63()
		cold, err := randomWarmModel(seed, rat.One()).SolveCtx(context.Background())
		if err != nil {
			continue
		}
		perturbed, repriced := randomWarmModel(seed, rat.New(21, 20)), randomWarmModel(seed, rat.One())
		negateObjective(repriced)
		for _, m := range []*Model{perturbed, repriced} {
			recs = recs[:0]
			m.StartFrom(cold.Basis())
			sol, err := m.SolveCtx(ctx)
			if err != nil {
				continue
			}
			CheckWarmSettles(t, fmt.Sprintf("seed %d", seed), recs, sol.WarmUsed, &n)
		}
	}
	t.Logf("%+v", n)
	if n.AtOnce == 0 || n.ForPhase2 == 0 || n.Checked == 0 {
		t.Fatalf("%+v: want warm solves optimal at once, warm solves that pivot, and waiting rows read", n)
	}
}
