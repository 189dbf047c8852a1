// Package gossip implements Section 3.5 of the paper: the Series of
// Gossips problem (pipelined personalized all-to-all). A set of source
// processors each emit a distinct unit-size message for every target
// processor per operation; the goal is the common steady-state throughput
// TP achieved simultaneously by every (source, target) stream.
//
// A Problem's commodities m_{k,l}, indexed by both the emitting and the
// receiving processor, feed the linear program SSPA2A(G) — the same
// one-port and conservation structure as the scatter program — through
// core.FlowFragment; the composite package assembles and solves it
// exactly over the rationals.
package gossip

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
)

// Problem is a Series of Gossips instance: every source sends one distinct
// message per operation to every target (self-addressed messages, when a
// node is both source and target, are delivered locally and excluded).
type Problem struct {
	Platform *graph.Platform
	Sources  []graph.NodeID
	Targets  []graph.NodeID
}

// NewProblem validates and returns a gossip problem.
func NewProblem(p *graph.Platform, sources, targets []graph.NodeID) (*Problem, error) {
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
	pairs := 0
	for _, s := range sources {
		for _, t := range targets {
			if s == t {
				continue
			}
			pairs++
			if !p.CanReach(s, t) {
				return nil, fmt.Errorf("gossip: %s cannot reach %s", p.Node(s).Name, p.Node(t).Name)
			}
		}
	}
	if pairs == 0 {
		return nil, fmt.Errorf("gossip: no cross pairs (sources == targets == one node?)")
	}
	return &Problem{
		Platform: p,
		Sources:  append([]graph.NodeID(nil), sources...),
		Targets:  append([]graph.NodeID(nil), targets...),
	}, nil
}

// Commodities returns the message types m_{k,l} of the instance: one per
// (source, target) pair with distinct endpoints, in deterministic order.
func (pr *Problem) Commodities() []core.Commodity {
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

// Solution is a solved Series of Gossips.
type Solution struct {
	Problem *Problem
	Flow    *core.Flow[core.Commodity]
}

// Throughput returns TP: gossip operations per time unit.
func (s *Solution) Throughput() rat.Rat { return rat.Copy(s.Flow.Throughput) }

// Period returns the integer schedule period (LCM of rate denominators).
func (s *Solution) Period() *big.Int { return s.Flow.Period() }

// UnitSize is the message size function (unit-size messages).
func UnitSize(core.Commodity) rat.Rat { return rat.One() }

// Verify re-checks the SSPA2A constraints independently of the solver:
// one-port feasibility, conservation at forwarding nodes, and delivery of
// exactly TP for every (source, target) stream.
func (s *Solution) Verify() error {
	if err := s.Flow.VerifyOnePort(UnitSize); err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	for _, com := range s.Problem.Commodities() {
		for _, n := range s.Problem.Platform.Nodes() {
			in, out := s.Flow.InflowOutflow(n.ID, com)
			switch n.ID {
			case com.Src:
				// mints m_{k,l}
			case com.Dst:
				if !rat.IsZero(out) {
					return fmt.Errorf("gossip: %s re-emits m(%s,%s)",
						n.Name, s.name(com.Src), s.name(com.Dst))
				}
				if !rat.Eq(in, s.Flow.Throughput) {
					return fmt.Errorf("gossip: %s receives m(%s,%s) at %s, want TP=%s",
						n.Name, s.name(com.Src), s.name(com.Dst), in.RatString(), s.Flow.Throughput.RatString())
				}
			default:
				if !rat.Eq(in, out) {
					return fmt.Errorf("gossip: conservation violated at %s for m(%s,%s)",
						n.Name, s.name(com.Src), s.name(com.Dst))
				}
			}
		}
	}
	return nil
}

// Protocol returns the Section 3.4 protocol parameters for a horizon of K
// time units (Proposition 2 extends Proposition 1 to gossips).
func (s *Solution) Protocol(horizon *big.Int) core.Protocol {
	return core.Protocol{
		Period:   s.Period(),
		Diameter: s.Problem.Platform.HopDiameter(),
		Horizon:  new(big.Int).Set(horizon),
	}
}

func (s *Solution) name(n graph.NodeID) string { return s.Problem.Platform.Node(n).Name }

// String renders throughput and per-edge typed message rates.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gossip throughput TP = %s (period %s)\n",
		s.Flow.Throughput.RatString(), s.Period().String())
	var lines []string
	for e, types := range s.Flow.Sends {
		for com, r := range types {
			lines = append(lines, fmt.Sprintf("  send(%s->%s, m_%s_%s) = %s",
				s.name(e.From), s.name(e.To), s.name(com.Src), s.name(com.Dst), r.RatString()))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
