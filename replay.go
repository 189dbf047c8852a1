// replay.go defines CheckReplay, the dynamic proof that a solved schedule
// works. By Lemma 1 no schedule delivers more than TP·K operations in K
// periods, and the buffered protocol of Section 3.4 reaches that rate once
// its pipeline fills, so a K-period replay must deliver inside
// [TP·K − warmup, TP·K]. Once the replay repeats a period, every sink must
// deliver exactly TP·T per period from then on: Lemma 1's bound met with
// equality.
package steadystate

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ReplayCheck is the Lemma-1 verdict of a K-period replay of a solution's
// simulation model. Counts are exact integers written as decimal strings,
// as in Report.
type ReplayCheck struct {
	// Periods is K, the number of replayed periods.
	Periods int `json:"periods"`
	// Period is the model's period T in time units.
	Period string `json:"period"`
	// FirstFull is the warmup W: the first period (0-based) in which every
	// transfer and rule ran at full quota, or -1 if none did.
	FirstFull int `json:"first_full_period"`
	// Steady is the first period (0-based) that ended with the buffers it
	// started with, so that every later period repeats it, or -1 if the
	// replay ended first.
	Steady int `json:"steady_period"`
	// DepthBound caps the warmup: every period moves each pending unit at
	// least one hop or merge, so the pipeline fills within
	// len(Transfers) + len(Rules) + 1 periods.
	DepthBound int `json:"depth_bound"`
	// Windows holds one verdict per sink set: one for a base kind, one per
	// member, in member order, for a Concurrent solution.
	Windows []ReplayWindow `json:"windows,omitempty"`
	// Error is why the replay could not run at all. CheckReplay returns
	// such failures as its error; a batch runner that keeps going records
	// them here, and the check then fails.
	Error string `json:"error,omitempty"`
}

// ReplayWindow is the verdict of one sink set: its delivered operations
// against the window [Floor, Bound] = [TP·T·(K−W), TP·T·K], with TP the
// sink set's own throughput, and, once the replay repeats a period, the
// exact steady-state rate of every sink of the set.
type ReplayWindow struct {
	// Member labels a Concurrent solution's member ("op0", the namespace
	// SimMemberPrefix gives it); it is empty for a base kind.
	Member string `json:"member,omitempty"`
	Kind   Kind   `json:"kind"`
	// Delivered is the smallest delivery count over the sink set: the
	// operations completed at every sink.
	Delivered string `json:"delivered"`
	// Floor and Bound are empty when they are undefined: TP·T is not an
	// integer, or (Floor only) the pipeline never filled.
	Floor string `json:"floor,omitempty"`
	Bound string `json:"bound,omitempty"`
	// Exact reports that from period Steady on every sink of the set
	// delivers exactly TP·T per period. With no repeat (Steady is -1) it is
	// false and the window alone judges; otherwise a sink that differs
	// fails the window.
	Exact bool `json:"exact,omitempty"`
	// OK is the verdict; Reason names the condition a failed window broke.
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// CheckReplay builds the solution's simulation model, replays it for the
// given number of periods and checks every sink set against its Lemma-1
// window: the delivered count lies in [TP·T·(K−W), TP·T·K], the warmup W
// is at most the schedule depth, and zero throughput delivers nothing.
// When the replay repeats a period, every sink of the set must also
// deliver exactly TP·T in it. A Concurrent solution is checked member by
// member, each against its own throughput Weight·TP. The error reports a
// model or replay that could not run; a failed window is a verdict, not an
// error.
func CheckReplay(sol Solution, periods int) (*ReplayCheck, error) {
	m, err := sol.SimModel()
	if err != nil {
		return nil, fmt.Errorf("simulation model: %w", err)
	}
	res, err := Simulate(m, periods)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	c := &ReplayCheck{
		Periods:    periods,
		Period:     m.Period.String(),
		FirstFull:  res.FirstFullPeriod,
		Steady:     res.Steady,
		DepthBound: len(m.Transfers) + len(m.Rules) + 1,
	}
	conc, ok := sol.(Concurrent)
	if !ok {
		c.Windows = []ReplayWindow{c.window("", sol, m, res, "")}
		return c, nil
	}
	for i, member := range conc.Members() {
		prefix := SimMemberPrefix(i)
		c.Windows = append(c.Windows, c.window(strings.TrimSuffix(prefix, ":"), member, m, res, prefix))
	}
	return c, nil
}

// window judges the sink set whose types start with prefix, which
// delivers at sol.Throughput() operations per time unit.
func (c *ReplayCheck) window(member string, sol Solution, m *SimModel, res *SimResult, prefix string) ReplayWindow {
	delivered := res.MinDeliveredPrefix(prefix)
	w := ReplayWindow{Member: member, Kind: sol.Kind(), Delivered: delivered.String()}
	fail := func(format string, args ...any) ReplayWindow {
		w.Reason = fmt.Sprintf(format, args...)
		return w
	}
	ops := new(big.Rat).Mul(sol.Throughput(), new(big.Rat).SetInt(m.Period))
	if !ops.IsInt() {
		return fail("TP·T = %s is not an integer", ops.RatString())
	}
	off := c.offRate(m, res, prefix, ops.Num())
	w.Exact = c.Steady >= 0 && off == ""
	bound := new(big.Int).Mul(ops.Num(), big.NewInt(int64(c.Periods)))
	w.Bound = bound.String()
	if ops.Sign() == 0 {
		w.Floor = "0"
		if delivered.Sign() != 0 {
			return fail("delivered %s with zero throughput", delivered)
		}
	} else {
		if c.FirstFull < 0 {
			return fail("pipeline never reached a full period")
		}
		floor := new(big.Int).Mul(ops.Num(), big.NewInt(int64(c.Periods-c.FirstFull)))
		w.Floor = floor.String()
		switch {
		case c.FirstFull > c.DepthBound:
			return fail("warmup %d periods exceeds the schedule-depth bound %d", c.FirstFull, c.DepthBound)
		case delivered.Cmp(bound) > 0:
			return fail("delivered %s beats the Lemma-1 bound %s", delivered, bound)
		case delivered.Cmp(floor) < 0:
			return fail("delivered %s below the warmup floor %s (warmup %d of %d periods)",
				delivered, floor, c.FirstFull, c.Periods)
		}
	}
	if off != "" {
		return fail("%s", off)
	}
	w.OK = true
	return w
}

// offRate names the first sink, in (node, type) order, whose type starts
// with prefix and whose delivery in the repeating period is not want; it
// returns "" when every such sink delivers want, or when the replay never
// repeated a period.
func (c *ReplayCheck) offRate(m *SimModel, res *SimResult, prefix string, want *big.Int) string {
	var sinks []sim.Endpoint
	for e := range res.SteadyDelivered {
		if strings.HasPrefix(string(e.Type), prefix) {
			sinks = append(sinks, e)
		}
	}
	sort.Slice(sinks, func(i, j int) bool {
		if sinks[i].Node != sinks[j].Node {
			return sinks[i].Node < sinks[j].Node
		}
		return sinks[i].Type < sinks[j].Type
	})
	for _, e := range sinks {
		if d := res.SteadyDelivered[e]; d.Cmp(want) != 0 {
			return fmt.Sprintf("sink %s at %s delivers %s per period from period %d, not TP·T = %s",
				e.Type, m.Platform.Node(e.Node).Name, d, c.Steady, want)
		}
	}
	return ""
}

// Err returns nil when the replay ran and every window holds, and
// otherwise an error naming the first failure.
func (c *ReplayCheck) Err() error {
	if c.Error != "" {
		return errors.New(c.Error)
	}
	for _, w := range c.Windows {
		if !w.OK {
			return fmt.Errorf("%s: %s", w.Label(), w.Reason)
		}
	}
	return nil
}

// Label names the window's sink set: "member op0 (reduce)" for a member
// of a Concurrent solution, the kind for a base kind.
func (w ReplayWindow) Label() string {
	if w.Member == "" {
		return string(w.Kind)
	}
	return fmt.Sprintf("member %s (%s)", w.Member, w.Kind)
}
