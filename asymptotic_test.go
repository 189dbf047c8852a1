// Asymptotic optimality of Section 3.4, measured on the replay: the
// buffered protocol delivers at most TP·K operations in K periods
// (Lemma 1) and reaches that bound as K grows (Propositions 1–3). The
// replay (CheckReplay) is the only statement of the protocol, so these
// checks read its verdicts rather than a formula for the warmup.
package steadystate_test

import (
	"context"
	"math/big"
	"testing"

	steadystate "repro"
)

// TestReplayRatioTendsToOne replays a scatter (Fig. 2), a reduce
// (Fig. 6) and a gossip through a relay hub at growing horizons K. At
// every K each window must hold, and delivered/bound — the fraction of
// Lemma 1's TP·K the protocol achieves — must stay at most 1, never fall
// as K grows, and reach 0.999 by K = 10⁶. Each case must spend at least
// one warmup period, so the ratio starts below 1 and the climb is real.
func TestReplayRatioTendsToOne(t *testing.T) {
	p2, src2, targets2 := steadystate.PaperFig2()
	p6, order6, target6 := steadystate.PaperFig6()
	hub := steadystate.NewPlatform()
	relay := hub.AddRouter("hub")
	var leaves []steadystate.NodeID
	for _, name := range []string{"l0", "l1", "l2"} {
		id := hub.AddNode(name, steadystate.R(1, 1))
		hub.AddLink(relay, id, steadystate.R(1, 1))
		leaves = append(leaves, id)
	}
	cases := []struct {
		name string
		p    *steadystate.Platform
		spec steadystate.Spec
	}{
		{"scatter/fig2", p2, steadystate.ScatterSpec(src2, targets2...)},
		{"reduce/fig6", p6, steadystate.ReduceSpec(order6, target6)},
		{"gossip/hub", hub, steadystate.GossipSpec(leaves, leaves)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sol, err := steadystate.Solve(context.Background(), c.p, c.spec)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			prev := new(big.Rat)
			for _, k := range []int{10, 50, 100, 1000, 10_000, 1_000_000} {
				check, err := steadystate.CheckReplay(sol, k)
				if err != nil {
					t.Fatalf("K=%d: CheckReplay: %v", k, err)
				}
				if check.FirstFull < 1 {
					t.Fatalf("K=%d: warmup %d: the case no longer exercises the pipeline fill", k, check.FirstFull)
				}
				if len(check.Windows) != 1 {
					t.Fatalf("K=%d: %d windows, want 1", k, len(check.Windows))
				}
				w := check.Windows[0]
				if !w.OK {
					t.Fatalf("K=%d: %s: %s", k, w.Label(), w.Reason)
				}
				ratio := replayRatio(t, w)
				if ratio.Cmp(big.NewRat(1, 1)) > 0 {
					t.Errorf("K=%d: delivered/bound = %s beats Lemma 1", k, ratio.RatString())
				}
				if ratio.Cmp(prev) < 0 {
					t.Errorf("K=%d: delivered/bound fell from %s to %s", k, prev.RatString(), ratio.RatString())
				}
				prev = ratio
			}
			if prev.Cmp(big.NewRat(999, 1000)) < 0 {
				t.Errorf("K=10⁶: delivered/bound = %s, want at least 0.999", prev.RatString())
			}
		})
	}
}

// replayRatio returns a window's delivered count over its Lemma-1 bound.
func replayRatio(t *testing.T, w steadystate.ReplayWindow) *big.Rat {
	t.Helper()
	delivered, ok1 := new(big.Int).SetString(w.Delivered, 10)
	bound, ok2 := new(big.Int).SetString(w.Bound, 10)
	if !ok1 || !ok2 || bound.Sign() <= 0 {
		t.Fatalf("window %s: delivered %q, bound %q", w.Label(), w.Delivered, w.Bound)
	}
	return new(big.Rat).SetFrac(delivered, bound)
}
