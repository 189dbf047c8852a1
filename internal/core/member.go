package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rat"
)

// Collective is the member contract every base-kind problem implements —
// scatter, broadcast, gossip, reduce (gather included) and prefix.
// internal/composite drives each member of the steady-state LP through it
// alone, so adding a kind means a problem, a fragment and a solution type
// implementing the contract, plus a row in the public API's kind table.
type Collective interface {
	// Kind names the collective family.
	Kind() string
	// Host returns the platform the problem is bound to.
	Host() *graph.Platform
	// NewFragment declares the problem's transfer variables into m under
	// label, registering their busy time with occ. ctx carries the solve
	// trace, if any: assembly opens an "assemble" span.
	NewFragment(ctx context.Context, m *lp.Model, label string, occ *OccupancyBuilder) (Fragment, error)
}

// Fragment is one member's share of a linear program. Assembly runs in
// three phases so that shared rows aggregate every member before they are
// emitted: Collective.NewFragment for every member, then the occupancy
// rows once; AddComputeVars for every member, then the compute rows once;
// AddFlowConstraints for every member.
type Fragment interface {
	// AddComputeVars declares the task variables, registering each task's
	// time with comp; a forwarding kind declares none.
	AddComputeVars(m *lp.Model, label string, comp *ComputeBuilder)
	// AddFlowConstraints adds the conservation rows and the delivery of
	// weight·tp; with weight 1 as the model's only fragment this is the
	// kind's plain program.
	AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat)
	// Extract reads the fragment's solved rates into a Part with
	// throughput tp.
	Extract(sol *lp.Solution, tp rat.Rat) Part
}

// Part is a solved base-kind collective: a plain solve's answer, or one
// member's share of a solved composite.
type Part interface {
	Throughput() rat.Rat
	Period() *big.Int
	// AllRates returns the part's rates plus its throughput: the input to
	// the period computation.
	AllRates() []rat.Rat
	Verify() error
	String() string
	// Demand lists what the part asks of the platform per time unit.
	Demand() Demand
}

// FlowTransfer is one typed steady-state message stream: Rate messages of
// the given Size per time unit on the edge From→To.
type FlowTransfer struct {
	From, To graph.NodeID
	Label    string
	Size     rat.Rat
	Rate     rat.Rat
}

// Demand is one collective's load on the platform: its typed transfers,
// in no particular order, plus (for the reduce family) the per-node
// compute occupation per time unit. It feeds schedule.MergeFlows and
// VerifyCapacity.
type Demand struct {
	Transfers []FlowTransfer
	// ComputeTime maps a node to its compute busy fraction (≤ 1).
	ComputeTime map[graph.NodeID]rat.Rat
}

// Transfers lists the flow's sends as unit-size transfers labeled by
// message type, in no particular order.
func (f *Flow[C]) Transfers(label func(C) string) []FlowTransfer {
	var out []FlowTransfer
	for e, types := range f.Sends {
		for c, r := range types {
			out = append(out, FlowTransfer{From: e.From, To: e.To, Label: label(c), Size: rat.One(), Rate: rat.Copy(r)}) //sslint:allow order-insensitive: a demand's transfers are unordered by contract
		}
	}
	return out
}

// VerifyCapacity checks the demands, summed, against the platform's
// capacity, independent of the LP: the occupation of every edge
// (Σ rate·size·cost), the send and the receive port of every node, and
// every node's compute time must each be at most 1 per time unit. It
// returns the first violation — edges in (from, to) order, then send
// ports, receive ports and compute time in node order — so the text does
// not depend on map order.
func VerifyCapacity(p *graph.Platform, demands ...Demand) error {
	edges := make(map[EdgeKey]*big.Rat)
	n := p.NumNodes()
	send, recv, compute := make([]big.Rat, n), make([]big.Rat, n), make([]big.Rat, n)
	var occ big.Rat
	for _, d := range demands {
		for _, tr := range d.Transfers {
			occ.Mul(tr.Rate, tr.Size)
			occ.Mul(&occ, p.Cost(tr.From, tr.To))
			k := EdgeKey{tr.From, tr.To}
			if edges[k] == nil {
				edges[k] = new(big.Rat)
			}
			edges[k].Add(edges[k], &occ)
			send[tr.From].Add(&send[tr.From], &occ)
			recv[tr.To].Add(&recv[tr.To], &occ)
		}
		for id, busy := range d.ComputeTime {
			compute[id].Add(&compute[id], busy)
		}
	}
	keys := make([]EdgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	one := rat.One()
	for _, k := range keys {
		if edges[k].Cmp(one) > 0 {
			return fmt.Errorf("core: edge %s→%s occupation %s > 1",
				p.Node(k.From).Name, p.Node(k.To).Name, edges[k].RatString())
		}
	}
	for _, check := range []struct {
		load []big.Rat
		verb string
	}{{send, "sends"}, {recv, "receives"}, {compute, "computes"}} {
		for id := range check.load {
			if check.load[id].Cmp(one) > 0 {
				return fmt.Errorf("core: node %s %s for %s > 1 per time unit",
					p.Node(graph.NodeID(id)).Name, check.verb, check.load[id].RatString())
			}
		}
	}
	return nil
}
