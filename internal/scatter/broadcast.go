// broadcast.go implements the Series of Broadcasts problem — the
// companion construction to the paper's Series of Scatters: one source
// processor owns an unbounded series of unit-size messages, and every
// target must receive a copy of every message. Unlike a scatter, the same
// content travels to every target, so a node that forwards one copy of a
// message onto an edge serves every target routed through that edge at
// once.
//
// The linear program is the scatter LP with one commodity replicated to
// all targets: per-target virtual flows x(e, b_t) reuse the scatter
// conservation and delivery structure, but the one-port rows are charged
// with a single shared per-edge carry rate y(e), constrained by
// x(e, b_t) ≤ y(e) for every target t — the LP relaxation of packing
// weighted broadcast trees. With a single target y(e) collapses onto the
// unique flow and the program degenerates to scatter-to-one.
package scatter

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rat"
)

// BroadcastProblem is a Series of Broadcasts instance: Source emits one
// unit-size message per operation and every target must receive a copy.
type BroadcastProblem struct {
	Platform *graph.Platform
	Source   graph.NodeID
	Targets  []graph.NodeID
}

// NewBroadcastProblem validates and returns a broadcast problem. The
// source must not be one of the targets (it already holds every message)
// and every target must be reachable.
func NewBroadcastProblem(p *graph.Platform, source graph.NodeID, targets []graph.NodeID) (*BroadcastProblem, error) {
	if err := validateTargets(broadcastKind, p, source, targets); err != nil {
		return nil, err
	}
	return &BroadcastProblem{Platform: p, Source: source, Targets: append([]graph.NodeID(nil), targets...)}, nil
}

// Kind names the collective family.
func (pr *BroadcastProblem) Kind() string { return broadcastKind.name }

// Host returns the platform the problem is bound to.
func (pr *BroadcastProblem) Host() *graph.Platform { return pr.Platform }

// carryBound is one replication bound x(e, b_t) ≤ y(e) of a fragment.
type carryBound struct {
	e    graph.Edge
	c    core.Commodity
	x, y lp.Var
}

// BroadcastFragment is one broadcast's share of a linear program: the
// shared per-edge carry variables (whose busy time is registered on a
// possibly shared OccupancyBuilder) plus the per-target virtual flow
// variables bounded by them. A model holding this one fragment is the
// plain broadcast LP; several fragments on one model superpose broadcasts
// with other collectives on the same platform capacity. Either way
// internal/composite assembles and solves the model.
type BroadcastFragment struct {
	*core.FlowRows
	Problem *BroadcastProblem
	bounds  []carryBound
}

// NewFragment declares the fragment's carry and flow variables into m,
// edge by edge, each carry before the flows it bounds, registering only
// the carry rates with occ — the per-target flows are virtual copies of
// the same bytes. label prefixes variable names so several fragments can
// share one model. The caller emits the port constraints
// (occ.AddConstraints) once after every fragment has been declared, then
// calls AddFlowConstraints per fragment. ctx carries the solve trace, if
// any: assembly opens an "assemble" span with a "reachability" child
// covering the pruning-index computation.
func (pr *BroadcastProblem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	ctx, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", "broadcast")
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("targets", len(pr.Targets))
	defer asmSpan.End()
	p := pr.Platform
	comms := fromSource(pr.Source, pr.Targets)
	f := &BroadcastFragment{
		FlowRows: core.NewFlowRows(ctx, p, comms, func(c core.Commodity) string { return broadcastKind.label(p, c) }),
		Problem:  pr,
	}
	carries := 0
	for _, e := range p.Edges() {
		// An edge gets a carry only if some target's copy may usefully
		// cross it.
		var useful []core.Commodity
		for _, c := range comms {
			if f.Useful(e, c) {
				useful = append(useful, c)
			}
		}
		if len(useful) == 0 {
			continue
		}
		y := m.Var(fmt.Sprintf("%scarry(%s->%s)", label, p.Node(e.From).Name, p.Node(e.To).Name))
		carries++
		occ.Add(e.From, e.To, y, e.Cost) // unit-size messages, sent once per edge
		for _, c := range useful {
			f.bounds = append(f.bounds, carryBound{e: e, c: c, x: f.Declare(m, label, e, c), y: y})
		}
	}
	asmSpan.SetAttr("vars", carries+f.Len())
	return f, nil
}

// AddFlowConstraints adds the replication bounds x(e, b_t) ≤ y(e), then
// the per-target conservation at forwarding nodes and the delivery of
// weight·tp at every target. With weight 1 as the model's only fragment
// this is the plain broadcast program; in a shared model, weight scales
// the broadcast's delivered rate relative to the common objective tp.
func (f *BroadcastFragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	p := f.Problem.Platform
	for _, b := range f.bounds {
		m.AddConstraint(
			fmt.Sprintf("%scarrybound(%s->%s,%s)", label,
				p.Node(b.e.From).Name, p.Node(b.e.To).Name, broadcastKind.label(p, b.c)),
			lp.NewExpr().Plus1(b.x).Minus(rat.One(), b.y), lp.Leq, rat.Zero())
	}
	f.FlowRows.AddFlowConstraints(m, label, tp, weight)
}

// Extract reads the fragment's solved rates into a broadcast solution
// with the given throughput: per-target flows are cycle-canceled, and the
// carry rate of each edge is tightened to the maximum per-target flow it
// must cover (the LP may leave slack in y within the port capacity).
func (f *BroadcastFragment) Extract(sol *lp.Solution, tp rat.Rat) core.Part {
	flow := f.Flow(sol, tp)
	carry := make(map[core.EdgeKey]rat.Rat)
	for e, types := range flow.Sends {
		max := rat.Zero()
		for _, r := range types {
			if r.Cmp(max) > 0 {
				max = r
			}
		}
		if max.Sign() > 0 {
			carry[e] = rat.Copy(max)
		}
	}
	return &BroadcastSolution{
		Problem: f.Problem,
		TP:      rat.Copy(tp),
		Flow:    flow,
		Carry:   carry,
	}
}

// BroadcastSolution is a solved Series of Broadcasts: the optimal
// throughput, the per-target virtual flows, and the shared carry rates
// that realize them physically.
type BroadcastSolution struct {
	Problem *BroadcastProblem
	// TP is the broadcast operations started per time unit.
	TP rat.Rat
	// Flow holds the per-target virtual flows x(e, b_t), keyed by the
	// commodity (source, t): each target's copy of the stream satisfies
	// the scatter-style conservation and delivery constraints.
	Flow *core.Flow[core.Commodity]
	// Carry is the physical rate of distinct messages on each edge —
	// max over targets of the virtual flows — the rate the one-port model
	// is charged for.
	Carry map[core.EdgeKey]rat.Rat
}

// Throughput returns TP: broadcasts initiated per time unit.
func (s *BroadcastSolution) Throughput() rat.Rat { return rat.Copy(s.TP) }

// AllRates returns the throughput, every per-target flow rate and every
// carry rate — the input to the period computation.
func (s *BroadcastSolution) AllRates() []rat.Rat {
	out := s.Flow.AllRates()
	for _, r := range s.Carry {
		out = append(out, rat.Copy(r)) //sslint:allow order-insensitive: rates feed DenominatorLCM
	}
	return out
}

// Period returns the schedule period T: the smallest integer such that
// every per-period message count — including the carry counts the
// schedule actually moves — is an integer.
func (s *BroadcastSolution) Period() *big.Int {
	return rat.DenominatorLCM(s.AllRates()...)
}

// Verify checks the solution against the broadcast constraints,
// independent of the LP solver: every per-target flow is covered by its
// edge's carry rate, the carry stream respects the one-port model, and
// each target's virtual flow conserves at forwarding nodes and delivers
// exactly TP. It returns the first violation.
func (s *BroadcastSolution) Verify() error {
	p := s.Problem.Platform
	for e, types := range s.Flow.Sends {
		carry := s.Carry[e]
		for com, r := range types {
			if carry == nil || r.Cmp(carry) > 0 {
				return fmt.Errorf("broadcast: flow for target %s on %s→%s exceeds the edge's carry rate",
					p.Node(com.Dst).Name, p.Node(e.From).Name, p.Node(e.To).Name)
			}
		}
	}
	if err := core.VerifyCapacity(p, s.Demand()); err != nil {
		return fmt.Errorf("broadcast: %w", err)
	}
	return broadcastKind.balance(s.Flow, fromSource(s.Problem.Source, s.Problem.Targets), s.TP)
}

// Streams returns the solution as its replay reads it: each target's copy
// of the stream is its own commodity. The wire moves the shared carry
// stream y(e) — one physical copy per edge — but a carried message
// satisfies every downstream target's conservation at once, so the replay
// tracks the per-target virtual flows x(e, b_t) bundled inside it, and
// delivered counts are checked against TP per target, not per physical
// edge-copy. Verify establishes the bundling invariant x(e, b_t) ≤ y(e)
// that makes this replay physically realizable.
func (s *BroadcastSolution) Streams() Streams {
	return Streams{Period: s.Period(), Flow: s.Flow,
		Commodities: fromSource(s.Problem.Source, s.Problem.Targets), kind: broadcastKind}
}

// Demand lists the broadcast's physical load: one unit-size transfer per
// edge at the carry rate, labeled "bcast" — one shared copy per edge, not
// one per target.
func (s *BroadcastSolution) Demand() core.Demand {
	var d core.Demand
	for e, r := range s.Carry {
		d.Transfers = append(d.Transfers, core.FlowTransfer{From: e.From, To: e.To, Label: "bcast", Size: rat.One(), Rate: rat.Copy(r)}) //sslint:allow order-insensitive: a demand's transfers are unordered by contract
	}
	return d
}

// String renders the solution as the paper's figures do: throughput, then
// per-edge carry rates (the messages physically moved).
func (s *BroadcastSolution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "broadcast throughput TP = %s (period %s)\n",
		s.TP.RatString(), s.Period().String())
	p := s.Problem.Platform
	var lines []string
	for e, r := range s.Carry {
		lines = append(lines, fmt.Sprintf("  carry(%s->%s) = %s",
			p.Node(e.From).Name, p.Node(e.To).Name, r.RatString()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
