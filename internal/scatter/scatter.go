// Package scatter implements the forwarding family of collectives: the
// Series of Scatters of Section 3 of the paper, the Series of Gossips of
// Section 3.5 (pipelined personalized all-to-all), and the Series of
// Broadcasts, the companion construction in which every target receives a
// copy of one stream. In each, source processors own an unbounded series
// of unit-size messages that are forwarded, never combined, and the goal
// is to maximize the steady-state throughput TP — the (rational) number of
// operations initiated per time unit — under the one-port model.
//
// The three kinds are one linear program over different commodity sets:
// a scatter's commodities are (source, t), one per target; a gossip's are
// every (source, target) pair with distinct endpoints; a broadcast's are
// (source, t) again, but one shared carry rate per edge pays for all its
// copies. They share everything else and differ only in data: the
// reachability pruning and the conservation and delivery rows
// (core.FlowRows), one balance check, one replay adapter (sim.FlowModel,
// reading Streams), and — for scatter and gossip — one solved core, Flows.
// They differ in their commodities, in the names they give a commodity
// (LP names "m<src>_<dst>" or "b_<dst>"; demand labels "m_<dst>",
// "m_<src>_<dst>" or "bcast"; replay types "m_<src>_<dst>" or "b_<dst>"),
// and in broadcast's carry rates.
//
// The composite package assembles and solves each program exactly over
// the rationals. Period gives the integer period of Section 3.4's
// buffered protocol; replaying that protocol (sim.FlowModel, checked by
// steadystate.CheckReplay) shows Propositions 1 and 2 on each solution.
package scatter

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
)

// Problem is a Series of Scatters instance.
type Problem struct {
	Platform *graph.Platform
	Source   graph.NodeID
	Targets  []graph.NodeID
}

// NewProblem validates and returns a scatter problem. The source must not
// be one of the targets (a message "sent" from the source to itself never
// crosses the network, so its throughput is not defined by the model), and
// every target must be reachable.
func NewProblem(p *graph.Platform, source graph.NodeID, targets []graph.NodeID) (*Problem, error) {
	if err := validateTargets(scatterKind, p, source, targets); err != nil {
		return nil, err
	}
	return &Problem{Platform: p, Source: source, Targets: append([]graph.NodeID(nil), targets...)}, nil
}

// Kind names the collective family.
func (pr *Problem) Kind() string { return scatterKind.name }

// Host returns the platform the problem is bound to.
func (pr *Problem) Host() *graph.Platform { return pr.Platform }

// NewFragment declares the scatter's commodities (source, t), one per
// target, into m through core.NewFlowFragment.
func (pr *Problem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	comms := fromSource(pr.Source, pr.Targets)
	return core.NewFlowFragment(ctx, m, label, pr.Platform, comms, occ, func(f *core.Flow[core.Commodity]) core.Part {
		return &Solution{Problem: pr, Flows: Flows{Flow: f, kind: scatterKind, comms: comms}}
	})
}

// Solution is a solved Series of Scatters: the optimal throughput and the
// steady-state communication pattern achieving it. Its Flow maps every
// directed edge and message type m_t (identified by the commodity
// (source, t)) to its fractional per-time-unit rate.
type Solution struct {
	Problem *Problem
	Flows
}
