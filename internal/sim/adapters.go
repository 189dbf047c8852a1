package sim

import (
	"math/big"
	"sort"

	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
)

// FlowModel builds the simulation model of a forwarding solution —
// scatter, broadcast or gossip — from its streams: the integer
// per-period transfer quotas, and for every commodity a source at its
// emitter and a sink at its destination, named by the commodity's message
// type. A broadcast's commodities are its per-target copies, so its replay
// delivers TP to every target from the virtual flows bundled inside the
// shared carry stream.
func FlowModel(s scatter.Streams) *Model {
	m := &Model{
		Platform: s.Flow.Platform,
		Period:   s.Period,
		Sources:  make(map[Endpoint]bool),
		Sinks:    make(map[Endpoint]bool),
	}
	for e, types := range s.Flow.Sends {
		for c, r := range types {
			count := rat.ScaleToInt(r, s.Period)
			if count.Sign() == 0 {
				continue
			}
			m.Transfers = append(m.Transfers, Transfer{
				From: e.From, To: e.To, Type: TypeID(s.Type(c)), Count: count,
			})
		}
	}
	for _, c := range s.Commodities {
		m.Sources[Endpoint{c.Src, TypeID(s.Type(c))}] = true
		m.Sinks[Endpoint{c.Dst, TypeID(s.Type(c))}] = true
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
