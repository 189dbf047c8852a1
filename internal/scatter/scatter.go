// Package scatter implements Section 3 of the paper: the Series of
// Scatters problem. One source processor owns an unbounded series of
// unit-size messages, one distinct message per target per scatter
// operation, and the goal is to maximize the steady-state throughput TP —
// the (rational) number of scatter operations initiated per time unit —
// under the one-port model.
//
// A Problem's commodities (source, t), one per target, feed the linear
// program SSSP(G) (equations (1)–(6)) through core.FlowFragment; the
// composite package assembles and solves it exactly over the rationals,
// and the Solution holds the per-edge typed message rates. The companion
// helpers expose the Section 3.4 machinery: the integer period, per-node
// buffer requirements, and the asymptotically optimal buffered protocol
// parameters used to prove Proposition 1.
package scatter

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
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
	if len(targets) == 0 {
		return nil, fmt.Errorf("scatter: no targets")
	}
	seen := make(map[graph.NodeID]bool)
	for _, t := range targets {
		if t == source {
			return nil, fmt.Errorf("scatter: source %s cannot be a target", p.Node(source).Name)
		}
		if seen[t] {
			return nil, fmt.Errorf("scatter: duplicate target %s", p.Node(t).Name)
		}
		seen[t] = true
		if !p.CanReach(source, t) {
			return nil, fmt.Errorf("scatter: target %s unreachable from source %s",
				p.Node(t).Name, p.Node(source).Name)
		}
	}
	return &Problem{Platform: p, Source: source, Targets: append([]graph.NodeID(nil), targets...)}, nil
}

// Solution is a solved Series of Scatters: the optimal throughput and the
// steady-state communication pattern achieving it.
type Solution struct {
	Problem *Problem
	// Flow maps every directed edge and message type m_t (identified by
	// the commodity (source, t)) to its fractional per-time-unit rate.
	Flow *core.Flow[core.Commodity]
}

// Throughput returns TP: scatters initiated per time unit.
func (s *Solution) Throughput() rat.Rat { return rat.Copy(s.Flow.Throughput) }

// UnitSize is the message size function for scatter flows (all messages
// have unit size; edge costs already express per-message transfer time).
func UnitSize(core.Commodity) rat.Rat { return rat.One() }

// Period returns the schedule period T: the smallest integer such that
// every per-period message count send(e, m_t)·T is an integer.
func (s *Solution) Period() *big.Int { return s.Flow.Period() }

// Verify checks the solution against the paper's constraints, independent
// of the LP solver: one-port feasibility, conservation at every node other
// than the source and the type's target, and delivery of exactly TP per
// target. It returns the first violation.
func (s *Solution) Verify() error {
	if err := s.Flow.VerifyOnePort(UnitSize); err != nil {
		return fmt.Errorf("scatter: %w", err)
	}
	for _, t := range s.Problem.Targets {
		com := core.Commodity{Src: s.Problem.Source, Dst: t}
		for _, n := range s.Problem.Platform.Nodes() {
			in, out := s.Flow.InflowOutflow(n.ID, com)
			switch n.ID {
			case s.Problem.Source:
				// The source mints messages; only its emissions matter.
			case t:
				if !rat.IsZero(out) {
					return fmt.Errorf("scatter: target %s re-emits its own messages", n.Name)
				}
				if !rat.Eq(in, s.Flow.Throughput) {
					return fmt.Errorf("scatter: target %s receives %s, want TP=%s",
						n.Name, in.RatString(), s.Flow.Throughput.RatString())
				}
			default:
				if !rat.Eq(in, out) {
					return fmt.Errorf("scatter: conservation violated at %s for m_%s: in=%s out=%s",
						n.Name, s.Problem.Platform.Node(t).Name, in.RatString(), out.RatString())
				}
			}
		}
	}
	return nil
}

// BufferRequirement is the Section 3.4 steady-state buffer bound for one
// (node, message type) pair: the node must hold at least MinMessages
// messages of the type before entering steady state, and never holds more
// than 2·MinMessages.
type BufferRequirement struct {
	Node graph.NodeID
	// Target identifies the message type m_target.
	Target graph.NodeID
	// MinMessages = Σ_j send(node→j, m_target) · T: messages of the type
	// forwarded by the node during one period.
	MinMessages *big.Int
}

// BufferRequirements returns the buffer bounds for every forwarding node
// and type with traffic, for the integer period Period(). Entries are
// sorted by node then target for deterministic output.
func (s *Solution) BufferRequirements() []BufferRequirement {
	period := new(big.Rat).SetInt(s.Period())
	acc := make(map[[2]graph.NodeID]rat.Rat)
	for e, types := range s.Flow.Sends {
		if e.From == s.Problem.Source {
			continue // the source mints messages, it does not buffer them
		}
		for com, r := range types {
			k := [2]graph.NodeID{e.From, com.Dst}
			if acc[k] == nil {
				acc[k] = rat.Zero()
			}
			acc[k].Add(acc[k], r)
		}
	}
	var out []BufferRequirement
	for k, r := range acc {
		scaled := rat.Mul(r, period)
		if !scaled.IsInt() {
			panic("scatter: period does not clear buffer denominators")
		}
		out = append(out, BufferRequirement{
			Node:        k[0],
			Target:      k[1],
			MinMessages: new(big.Int).Set(scaled.Num()),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// Protocol returns the Section 3.4 protocol parameters for a horizon of K
// time units: period, initialization latency and steady period count, from
// which the asymptotic-optimality ratio of Proposition 1 follows.
func (s *Solution) Protocol(horizon *big.Int) core.Protocol {
	return core.Protocol{
		Period:   s.Period(),
		Diameter: s.Problem.Platform.HopDiameter(),
		Horizon:  new(big.Int).Set(horizon),
	}
}

// String renders the solution as the paper's figures do: throughput, then
// per-edge typed message rates.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scatter throughput TP = %s (period %s)\n",
		s.Flow.Throughput.RatString(), s.Period().String())
	p := s.Problem.Platform
	var lines []string
	for e, types := range s.Flow.Sends {
		for com, r := range types {
			lines = append(lines, fmt.Sprintf("  send(%s->%s, m_%s) = %s",
				p.Node(e.From).Name, p.Node(e.To).Name, p.Node(com.Dst).Name, r.RatString()))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
