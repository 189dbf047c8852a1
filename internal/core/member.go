package core

import (
	"context"
	"math/big"

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
// compute occupation per time unit. It feeds schedule.MergeFlows and the
// shared-capacity checks of a composite.
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
