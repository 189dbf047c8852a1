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

// kind is what tells the forwarding kinds apart besides their
// commodities: the name that prefixes their errors and reports, and how
// they name a commodity.
type kind struct {
	name string
	// label names a commodity in the kind's demand, String and Verify
	// errors, and (for broadcast) in its LP names.
	label func(p *graph.Platform, c core.Commodity) string
	// stream names a commodity's message type in a replay model.
	stream func(p *graph.Platform, c core.Commodity) string
}

// toTarget names a commodity by its destination alone, "m_<dst>": a
// scatter's messages all leave one source.
func toTarget(p *graph.Platform, c core.Commodity) string { return "m_" + p.Node(c.Dst).Name }

// pair names a commodity by both endpoints, "m_<src>_<dst>".
func pair(p *graph.Platform, c core.Commodity) string {
	return "m_" + p.Node(c.Src).Name + "_" + p.Node(c.Dst).Name
}

// copyFor names one target's copy of a broadcast stream, "b_<dst>".
func copyFor(p *graph.Platform, c core.Commodity) string { return "b_" + p.Node(c.Dst).Name }

var (
	scatterKind   = &kind{name: "scatter", label: toTarget, stream: pair}
	gossipKind    = &kind{name: "gossip", label: pair, stream: pair}
	broadcastKind = &kind{name: "broadcast", label: copyFor, stream: copyFor}
)

// fromSource returns the commodities (source, t), one per target.
func fromSource(source graph.NodeID, targets []graph.NodeID) []core.Commodity {
	comms := make([]core.Commodity, len(targets))
	for j, t := range targets {
		comms[j] = core.Commodity{Src: source, Dst: t}
	}
	return comms
}

// validateTargets checks a single-source instance: at least one target,
// none of them the source or a duplicate, and every one reachable.
func validateTargets(k *kind, p *graph.Platform, source graph.NodeID, targets []graph.NodeID) error {
	if len(targets) == 0 {
		return fmt.Errorf("%s: no targets", k.name)
	}
	seen := make(map[graph.NodeID]bool)
	for _, t := range targets {
		if t == source {
			return fmt.Errorf("%s: source %s cannot be a target", k.name, p.Node(source).Name)
		}
		if seen[t] {
			return fmt.Errorf("%s: duplicate target %s", k.name, p.Node(t).Name)
		}
		seen[t] = true
		if !p.CanReach(source, t) {
			return fmt.Errorf("%s: target %s unreachable from source %s",
				k.name, p.Node(t).Name, p.Node(source).Name)
		}
	}
	return nil
}

// balance checks the flow's commodities against the conservation law,
// independent of the LP: every commodity is conserved at every node but
// its source and destination, and its destination re-emits none of it and
// receives exactly tp. It reads every balance from one pass over the
// sends and returns the first violation, in commodity then node order.
func (k *kind) balance(flow *core.Flow[core.Commodity], comms []core.Commodity, tp rat.Rat) error {
	p := flow.Platform
	ins, outs := flow.InflowOutflow(comms)
	for j, c := range comms {
		for _, n := range p.Nodes() {
			in, out := &ins[j][n.ID], &outs[j][n.ID]
			switch n.ID {
			case c.Src:
				// The source mints messages; only its emissions matter.
			case c.Dst:
				if out.Sign() != 0 {
					return fmt.Errorf("%s: %s re-emits %s", k.name, n.Name, k.label(p, c))
				}
				if in.Cmp(tp) != 0 {
					return fmt.Errorf("%s: %s receives %s at %s, want TP=%s",
						k.name, n.Name, k.label(p, c), in.RatString(), tp.RatString())
				}
			default:
				if in.Cmp(out) != 0 {
					return fmt.Errorf("%s: conservation violated at %s for %s: in=%s out=%s",
						k.name, n.Name, k.label(p, c), in.RatString(), out.RatString())
				}
			}
		}
	}
	return nil
}

// Flows is the steady state of a solved scatter or gossip: its
// commodities and their per-edge rates. Solution and GossipSolution embed
// it and differ only in their commodities and names.
type Flows struct {
	// Flow maps every directed edge and commodity to its fractional
	// per-time-unit rate; Flow.Throughput is TP.
	Flow  *core.Flow[core.Commodity]
	kind  *kind
	comms []core.Commodity
}

// Throughput returns TP: operations initiated per time unit.
func (s *Flows) Throughput() rat.Rat { return rat.Copy(s.Flow.Throughput) }

// Period returns the schedule period T: the smallest integer such that
// every per-period message count send(e, c)·T is an integer.
func (s *Flows) Period() *big.Int { return s.Flow.Period() }

// AllRates returns the throughput and every send rate — the input to the
// period computation.
func (s *Flows) AllRates() []rat.Rat { return s.Flow.AllRates() }

// Demand lists one unit-size transfer per edge and message type, labeled
// "m_<target>" for a scatter and "m_<source>_<target>" for a gossip.
func (s *Flows) Demand() core.Demand {
	p := s.Flow.Platform
	return core.Demand{Transfers: s.Flow.Transfers(func(c core.Commodity) string { return s.kind.label(p, c) })}
}

// Verify checks the solution against the paper's constraints, independent
// of the LP solver: one-port feasibility, conservation at every node other
// than a message type's source and destination, and delivery of exactly
// TP per type. It returns the first violation.
func (s *Flows) Verify() error {
	if err := core.VerifyCapacity(s.Flow.Platform, s.Demand()); err != nil {
		return fmt.Errorf("%s: %w", s.kind.name, err)
	}
	return s.kind.balance(s.Flow, s.comms, s.Flow.Throughput)
}

// Protocol returns the Section 3.4 protocol parameters for a horizon of K
// time units: period, initialization latency and steady period count, from
// which the asymptotic-optimality ratio of Proposition 1 (Proposition 2
// for gossips) follows.
func (s *Flows) Protocol(horizon *big.Int) core.Protocol {
	return core.Protocol{
		Period:   s.Period(),
		Diameter: s.Flow.Platform.HopDiameter(),
		Horizon:  new(big.Int).Set(horizon),
	}
}

// Streams returns the solution as its replay reads it.
func (s *Flows) Streams() Streams {
	return Streams{Period: s.Period(), Flow: s.Flow, Commodities: s.comms, kind: s.kind}
}

// String renders the solution as the paper's figures do: throughput, then
// per-edge typed message rates.
func (s *Flows) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s throughput TP = %s (period %s)\n",
		s.kind.name, s.Flow.Throughput.RatString(), s.Period().String())
	p := s.Flow.Platform
	var lines []string
	for e, types := range s.Flow.Sends {
		for c, r := range types {
			lines = append(lines, fmt.Sprintf("  send(%s->%s, %s) = %s",
				p.Node(e.From).Name, p.Node(e.To).Name, s.kind.label(p, c), r.RatString()))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Streams is a solved forwarding kind as its replay reads it: the period,
// the per-edge rates of every commodity, and the commodities, each of
// which a replay injects at its source and counts at its destination.
type Streams struct {
	Period      *big.Int
	Flow        *core.Flow[core.Commodity]
	Commodities []core.Commodity
	kind        *kind
}

// Type names commodity c's message type: "m_<source>_<target>" for
// scatter and gossip, "b_<target>" for one target's copy of a broadcast.
func (s Streams) Type(c core.Commodity) string { return s.kind.stream(s.Flow.Platform, c) }
