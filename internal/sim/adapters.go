package sim

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
)

// commodityType names a scatter/gossip stream.
func commodityType(p *graph.Platform, c core.Commodity) TypeID {
	return TypeID(fmt.Sprintf("m_%s_%s", p.Node(c.Src).Name, p.Node(c.Dst).Name))
}

// flowModel builds a Model from any uniform flow: the integer per-period
// transfer quotas, one source per commodity at its emitter, one sink at
// its destination.
func flowModel(flow *core.Flow[core.Commodity]) *Model {
	p := flow.Platform
	period := flow.Period()
	m := &Model{
		Platform: p,
		Period:   period,
		Sources:  make(map[Endpoint]bool),
		Sinks:    make(map[Endpoint]bool),
	}
	seen := make(map[core.Commodity]bool)
	for e, types := range flow.Sends {
		for c, r := range types {
			count := rat.ScaleToInt(r, period)
			if count.Sign() == 0 {
				continue
			}
			m.Transfers = append(m.Transfers, Transfer{
				From: e.From, To: e.To, Type: commodityType(p, c), Count: count,
			})
			if !seen[c] {
				seen[c] = true
				m.Sources[Endpoint{c.Src, commodityType(p, c)}] = true
				m.Sinks[Endpoint{c.Dst, commodityType(p, c)}] = true
			}
		}
	}
	// The replay's per-period effects are commutative, but a canonical
	// transfer order keeps models comparable and traces reproducible.
	sort.Slice(m.Transfers, func(i, j int) bool { return transferLess(m.Transfers[i], m.Transfers[j]) })
	return m
}

// transferLess orders transfers by (from, to, type) for canonical models.
func transferLess(a, b Transfer) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Type < b.Type
}

// ruleLess is a total order on rules — (order, node, produces, consumes) —
// so canonically sorted rule lists are byte-stable across solves (two task
// kinds may produce the same range on the same node and differ only in
// their split point, so the consume list must break the tie).
func ruleLess(a, b Rule) bool {
	if a.Order != b.Order {
		return a.Order < b.Order
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Produces != b.Produces {
		return a.Produces < b.Produces
	}
	for i := 0; i < len(a.Consumes) && i < len(b.Consumes); i++ {
		if a.Consumes[i] != b.Consumes[i] {
			return a.Consumes[i] < b.Consumes[i]
		}
	}
	return len(a.Consumes) < len(b.Consumes)
}

// ScatterModel builds the simulation model of a scatter solution.
func ScatterModel(sol *scatter.Solution) *Model {
	m := flowModel(sol.Flow)
	// Targets with no traffic (disconnected at TP=0) still get sinks so
	// MinDelivered stays honest.
	for _, t := range sol.Problem.Targets {
		c := core.Commodity{Src: sol.Problem.Source, Dst: t}
		m.Sinks[Endpoint{t, commodityType(sol.Problem.Platform, c)}] = true
	}
	return m
}

// GossipModel builds the simulation model of a gossip solution.
func GossipModel(sol *gossip.Solution) *Model {
	m := flowModel(sol.Flow)
	for _, c := range sol.Problem.Commodities() {
		m.Sinks[Endpoint{c.Dst, commodityType(sol.Problem.Platform, c)}] = true
	}
	return m
}

// rangeType names a partial result.
func rangeType(r reduce.Range) TypeID { return TypeID(r.String()) }

// rangeModel builds the replay model shared by the reduce family from
// integer per-period counts: transfers of partial results, one rule per
// task kind ordered by result length (so intra-period task chains
// resolve), and the initial values v[i,i] as sources at their owners. The
// kind adds its sinks.
func rangeModel(p *graph.Platform, period *big.Int, order []graph.NodeID, sends map[reduce.SendKey]*big.Int, tasks map[reduce.TaskKey]*big.Int) *Model {
	m := &Model{
		Platform: p,
		Period:   period,
		Sources:  make(map[Endpoint]bool),
		Sinks:    make(map[Endpoint]bool),
	}
	for i, owner := range order {
		m.Sources[Endpoint{owner, rangeType(reduce.Range{K: i, M: i})}] = true
	}
	for k, c := range sends {
		if c.Sign() == 0 {
			continue
		}
		m.Transfers = append(m.Transfers, Transfer{
			From: k.From, To: k.To, Type: rangeType(k.R), Count: c,
		})
	}
	for k, c := range tasks {
		if c.Sign() == 0 {
			continue
		}
		m.Rules = append(m.Rules, Rule{
			Node:     k.Node,
			Consumes: []TypeID{rangeType(k.T.Left()), rangeType(k.T.Right())},
			Produces: rangeType(k.T.Result()),
			Count:    c,
			Order:    k.T.Result().Len(),
		})
	}
	// Canonical order: the replay sorts rules by Order and same-Order
	// rules are independent, but deterministic models diff cleanly.
	sort.Slice(m.Transfers, func(i, j int) bool { return transferLess(m.Transfers[i], m.Transfers[j]) })
	sort.Slice(m.Rules, func(i, j int) bool { return ruleLess(m.Rules[i], m.Rules[j]) })
	return m
}

// ReduceModel builds the simulation model of a reduce application (the
// integerized solution): the reduce family's model with the final value at
// the target as the sink.
func ReduceModel(app *reduce.Application) *Model {
	pr := app.Problem
	m := rangeModel(pr.Platform, app.Period, pr.Order, app.Sends, app.Tasks)
	m.Sinks[Endpoint{pr.Target, rangeType(reduce.Range{K: 0, M: pr.N()})}] = true
	return m
}

// broadcastType names one target's replicated copy of the broadcast
// stream.
func broadcastType(p *graph.Platform, target graph.NodeID) TypeID {
	return TypeID("b_" + p.Node(target).Name)
}

// BroadcastModel builds the simulation model of a broadcast solution. The
// wire moves the shared carry stream y(e) — one physical copy per edge —
// but a carried message satisfies every downstream target's conservation
// at once, so the replay tracks the per-target virtual flows x(e, b_t)
// bundled inside it: each target's copy is its own commodity with a source
// at the broadcast source and a sink at the target, and delivered counts
// are checked against TP per target, not per physical edge-copy. The
// bundling invariant x(e, b_t) ≤ y(e), which makes this replay physically
// realizable, is established by BroadcastSolution.Verify.
func BroadcastModel(sol *scatter.BroadcastSolution) *Model {
	p := sol.Problem.Platform
	period := sol.Period()
	m := &Model{
		Platform: p,
		Period:   period,
		Sources:  make(map[Endpoint]bool),
		Sinks:    make(map[Endpoint]bool),
	}
	for e, types := range sol.Flow.Sends {
		for c, r := range types {
			count := rat.ScaleToInt(r, period)
			if count.Sign() == 0 {
				continue
			}
			m.Transfers = append(m.Transfers, Transfer{
				From: e.From, To: e.To, Type: broadcastType(p, c.Dst), Count: count,
			})
		}
	}
	// Every target gets its source/sink pair even at zero traffic (TP=0)
	// so MinDelivered stays honest.
	for _, t := range sol.Problem.Targets {
		m.Sources[Endpoint{sol.Problem.Source, broadcastType(p, t)}] = true
		m.Sinks[Endpoint{t, broadcastType(p, t)}] = true
	}
	sort.Slice(m.Transfers, func(i, j int) bool { return transferLess(m.Transfers[i], m.Transfers[j]) })
	return m
}

// PrefixModel builds the simulation model of a prefix solution: the reduce
// family's model at the solution period, with one quota sink per rank —
// rank i must absorb v[0,i] at rate TP while any surplus stays buffered
// for forwarding downstream. Rank 0 owns v[0,0] locally (source and sink
// at once), so its quota is credited directly each period.
func PrefixModel(sol *reduce.PrefixSolution) *Model {
	pr := sol.Problem
	period := sol.Period()
	sends, tasks := sol.Counts(period)
	m := rangeModel(pr.Platform, period, pr.Order, sends, tasks)
	quota := rat.ScaleToInt(sol.TP, period)
	m.SinkQuota = make(map[Endpoint]*big.Int)
	for i, owner := range pr.Order {
		e := Endpoint{owner, rangeType(reduce.Range{K: 0, M: i})}
		m.Sinks[e] = true
		m.SinkQuota[e] = new(big.Int).Set(quota)
	}
	return m
}
