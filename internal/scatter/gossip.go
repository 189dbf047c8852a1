package scatter

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
)

// GossipProblem is a Series of Gossips instance (Section 3.5): every
// source sends one distinct message per operation to every target, and
// the goal is the common throughput TP achieved simultaneously by every
// (source, target) stream. Self-addressed messages, when a node is both
// source and target, are delivered locally and excluded.
type GossipProblem struct {
	Platform *graph.Platform
	Sources  []graph.NodeID
	Targets  []graph.NodeID
}

// NewGossipProblem validates and returns a gossip problem.
func NewGossipProblem(p *graph.Platform, sources, targets []graph.NodeID) (*GossipProblem, error) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, fmt.Errorf("gossip: need at least one source and one target")
	}
	for _, set := range [][]graph.NodeID{sources, targets} {
		seen := make(map[graph.NodeID]bool)
		for _, n := range set {
			if seen[n] {
				return nil, fmt.Errorf("gossip: duplicate node %s", p.Node(n).Name)
			}
			seen[n] = true
		}
	}
	pr := &GossipProblem{
		Platform: p,
		Sources:  append([]graph.NodeID(nil), sources...),
		Targets:  append([]graph.NodeID(nil), targets...),
	}
	comms := pr.Commodities()
	for _, c := range comms {
		if !p.CanReach(c.Src, c.Dst) {
			return nil, fmt.Errorf("gossip: %s cannot reach %s", p.Node(c.Src).Name, p.Node(c.Dst).Name)
		}
	}
	if len(comms) == 0 {
		return nil, fmt.Errorf("gossip: no cross pairs (sources == targets == one node?)")
	}
	return pr, nil
}

// Commodities returns the message types m_{k,l} of the instance: one per
// (source, target) pair with distinct endpoints, in deterministic order.
func (pr *GossipProblem) Commodities() []core.Commodity {
	var out []core.Commodity
	for _, s := range pr.Sources {
		for _, t := range pr.Targets {
			if s != t {
				out = append(out, core.Commodity{Src: s, Dst: t})
			}
		}
	}
	return out
}

// Kind names the collective family.
func (pr *GossipProblem) Kind() string { return gossipKind.name }

// Host returns the platform the problem is bound to.
func (pr *GossipProblem) Host() *graph.Platform { return pr.Platform }

// NewFragment declares the gossip's commodities into m through
// core.NewFlowFragment: the linear program SSPA2A(G), the scatter program
// over every (source, target) pair.
func (pr *GossipProblem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	comms := pr.Commodities()
	return core.NewFlowFragment(ctx, m, label, pr.Platform, comms, occ, func(f *core.Flow[core.Commodity]) core.Part {
		return &GossipSolution{Problem: pr, Flows: Flows{Flow: f, kind: gossipKind, comms: comms}}
	})
}

// GossipSolution is a solved Series of Gossips: its Flow maps every
// directed edge and message type m_{k,l} to its per-time-unit rate.
type GossipSolution struct {
	Problem *GossipProblem
	Flows
}
