package sim

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/graph"
)

// Merge superposes per-member simulation models into one model over a
// common period — the dynamic counterpart of schedule.MergeFlows. Every
// member model's period must divide the merged period (the composite
// period is the LCM of all member rates, so this holds by construction for
// composite solutions); member quotas and counts are scaled up by the
// period ratio and every member's types are namespaced with its label, so
// the members' buffer dynamics stay fully disjoint: the merged replay is
// the exact union of the member replays at merged-period granularity. The
// shared one-port budget is what the members' joint LP (and the merged
// schedule's matching decomposition) already guarantees per merged period;
// the replay adds the dynamic part — pipeline fill and per-member
// delivered counts.
func Merge(p *graph.Platform, period *big.Int, members []*Model, labels []string) (*Model, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: merge needs at least one member model")
	}
	if len(labels) != len(members) {
		return nil, fmt.Errorf("sim: merge got %d models but %d labels", len(members), len(labels))
	}
	if period == nil || period.Sign() <= 0 {
		return nil, fmt.Errorf("sim: merged period must be positive")
	}
	out := &Model{
		Platform:  p,
		Period:    new(big.Int).Set(period),
		Sources:   make(map[Endpoint]bool),
		Sinks:     make(map[Endpoint]bool),
		SinkQuota: make(map[Endpoint]*big.Int),
	}
	seen := make(map[string]bool)
	for i, mm := range members {
		label := labels[i]
		switch {
		case mm == nil:
			return nil, fmt.Errorf("sim: member %d has no model", i)
		case mm.Platform != p:
			return nil, fmt.Errorf("sim: member %d is bound to a different platform", i)
		case label == "" || seen[label]:
			return nil, fmt.Errorf("sim: member %d has empty or duplicate label %q", i, label)
		}
		seen[label] = true
		if err := mm.Validate(); err != nil {
			return nil, fmt.Errorf("sim: member %d (%s): %w", i, label, err)
		}
		scale, rem := new(big.Int).QuoRem(period, mm.Period, new(big.Int))
		if rem.Sign() != 0 {
			return nil, fmt.Errorf("sim: member %d period %s does not divide merged period %s",
				i, mm.Period, period)
		}
		ns := func(t TypeID) TypeID { return TypeID(label) + t }
		for _, t := range mm.Transfers {
			out.Transfers = append(out.Transfers, Transfer{
				From: t.From, To: t.To, Type: ns(t.Type),
				Count: new(big.Int).Mul(t.Count, scale),
			})
		}
		for _, r := range mm.Rules {
			consumes := make([]TypeID, len(r.Consumes))
			for j, c := range r.Consumes {
				consumes[j] = ns(c)
			}
			out.Rules = append(out.Rules, Rule{
				Node:     r.Node,
				Consumes: consumes,
				Produces: ns(r.Produces),
				Count:    new(big.Int).Mul(r.Count, scale),
				Order:    r.Order,
			})
		}
		for e := range mm.Sources {
			out.Sources[Endpoint{e.Node, ns(e.Type)}] = true
		}
		for e := range mm.Sinks {
			out.Sinks[Endpoint{e.Node, ns(e.Type)}] = true
		}
		for e, q := range mm.SinkQuota {
			out.SinkQuota[Endpoint{e.Node, ns(e.Type)}] = new(big.Int).Mul(q, scale)
		}
	}
	sort.Slice(out.Transfers, func(i, j int) bool { return transferLess(out.Transfers[i], out.Transfers[j]) })
	sort.Slice(out.Rules, func(i, j int) bool { return ruleLess(out.Rules[i], out.Rules[j]) })
	return out, nil
}
