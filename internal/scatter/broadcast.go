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
	if len(targets) == 0 {
		return nil, fmt.Errorf("broadcast: no targets")
	}
	seen := make(map[graph.NodeID]bool)
	for _, t := range targets {
		if t == source {
			return nil, fmt.Errorf("broadcast: source %s cannot be a target", p.Node(source).Name)
		}
		if seen[t] {
			return nil, fmt.Errorf("broadcast: duplicate target %s", p.Node(t).Name)
		}
		seen[t] = true
		if !p.CanReach(source, t) {
			return nil, fmt.Errorf("broadcast: target %s unreachable from source %s",
				p.Node(t).Name, p.Node(source).Name)
		}
	}
	return &BroadcastProblem{Platform: p, Source: source, Targets: append([]graph.NodeID(nil), targets...)}, nil
}

// broadcastKey identifies one per-target flow variable of a fragment.
type broadcastKey struct {
	e core.EdgeKey
	t graph.NodeID
}

// BroadcastFragment is one broadcast's share of a linear program: the
// shared per-edge carry variables (whose busy time is registered on a
// possibly shared OccupancyBuilder) plus the per-target virtual flow
// variables bounded by them. A model holding this one fragment is the
// plain broadcast LP; several fragments on one model superpose broadcasts
// with other collectives on the same platform capacity. Either way
// internal/composite assembles and solves the model.
type BroadcastFragment struct {
	Problem *BroadcastProblem
	carry   map[core.EdgeKey]lp.Var
	sends   map[broadcastKey]lp.Var
}

// NewFragment declares the fragment's carry and flow variables into m,
// registering only the carry rates with occ — the per-target flows are
// virtual copies of the same bytes. label prefixes variable names so
// several fragments can share one model. The caller emits the port
// constraints (occ.AddConstraints) once after every fragment has been
// declared, then calls AddFlowConstraints per fragment. ctx carries the
// solve trace, if any: assembly opens an "assemble" span with a
// "reachability" child covering the pruning-index computation.
func (pr *BroadcastProblem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) *BroadcastFragment {
	ctx, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", "broadcast")
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("targets", len(pr.Targets))
	p := pr.Platform
	_, reachSpan := obs.StartSpan(ctx, "reachability")
	fromSrc := make(map[graph.NodeID]bool)
	for _, n := range p.ReachableFrom(pr.Source) {
		fromSrc[n] = true
	}
	toDst := make(map[graph.NodeID]map[graph.NodeID]bool)
	for _, t := range pr.Targets {
		set := make(map[graph.NodeID]bool)
		for _, n := range p.Nodes() {
			if n.ID == t || p.CanReach(n.ID, t) {
				set[n.ID] = true
			}
		}
		toDst[t] = set
	}
	reachSpan.SetAttr("sources", 1)
	reachSpan.SetAttr("destinations", len(toDst))
	reachSpan.End()

	f := &BroadcastFragment{
		Problem: pr,
		carry:   make(map[core.EdgeKey]lp.Var),
		sends:   make(map[broadcastKey]lp.Var),
	}
	for _, e := range p.Edges() {
		// The same pruning as the scatter commodity (source, t): a useful
		// copy starts somewhere the message can exist and ends somewhere it
		// can still make progress toward t.
		var useful []graph.NodeID
		for _, t := range pr.Targets {
			if e.To != pr.Source && e.From != t && fromSrc[e.From] && toDst[t][e.To] {
				useful = append(useful, t)
			}
		}
		if len(useful) == 0 {
			continue
		}
		k := core.EdgeKey{From: e.From, To: e.To}
		y := m.Var(fmt.Sprintf("%scarry(%s->%s)", label, p.Node(e.From).Name, p.Node(e.To).Name))
		f.carry[k] = y
		occ.Add(e.From, e.To, y, e.Cost) // unit-size messages, sent once per edge
		for _, t := range useful {
			name := fmt.Sprintf("%ssend(%s->%s,b_%s)", label,
				p.Node(e.From).Name, p.Node(e.To).Name, p.Node(t).Name)
			f.sends[broadcastKey{k, t}] = m.Var(name)
		}
	}
	asmSpan.SetAttr("vars", len(f.carry)+len(f.sends))
	asmSpan.End()
	return f
}

// AddFlowConstraints adds the replication bounds x(e, b_t) ≤ y(e), the
// per-target conservation at forwarding nodes, and the delivery of
// weight·tp at every target. With weight 1 as the model's only fragment
// this is the plain broadcast program; in a shared model, weight scales
// the broadcast's delivered rate relative to the common objective tp.
func (f *BroadcastFragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	p := f.Problem.Platform
	for _, e := range p.Edges() {
		k := core.EdgeKey{From: e.From, To: e.To}
		y, ok := f.carry[k]
		if !ok {
			continue
		}
		for _, t := range f.Problem.Targets {
			x, ok := f.sends[broadcastKey{k, t}]
			if !ok {
				continue
			}
			m.AddConstraint(
				fmt.Sprintf("%scarrybound(%s->%s,b_%s)", label,
					p.Node(e.From).Name, p.Node(e.To).Name, p.Node(t).Name),
				lp.NewExpr().Plus1(x).Minus(rat.One(), y), lp.Leq, rat.Zero())
		}
	}
	for _, t := range f.Problem.Targets {
		for _, n := range p.Nodes() {
			if n.ID == f.Problem.Source {
				continue
			}
			in := lp.NewExpr()
			for _, e := range p.InEdges(n.ID) {
				if v, ok := f.sends[broadcastKey{core.EdgeKey{From: e.From, To: e.To}, t}]; ok {
					in = in.Plus1(v)
				}
			}
			if n.ID == t {
				in = in.Minus(weight, tp)
				m.AddConstraint(
					fmt.Sprintf("%sdeliver(%s,b_%s)", label, n.Name, p.Node(t).Name),
					in, lp.Eq, rat.Zero())
				continue
			}
			out := lp.NewExpr()
			for _, e := range p.OutEdges(n.ID) {
				if v, ok := f.sends[broadcastKey{core.EdgeKey{From: e.From, To: e.To}, t}]; ok {
					out = out.Plus1(v)
				}
			}
			if len(in) == 0 && len(out) == 0 {
				continue
			}
			cons := in
			for _, term := range out {
				cons = cons.Minus(term.Coeff, term.Var)
			}
			m.AddConstraint(
				fmt.Sprintf("%sconserve(%s,b_%s)", label, n.Name, p.Node(t).Name),
				cons, lp.Eq, rat.Zero())
		}
	}
}

// Extract reads the fragment's solved rates into a broadcast solution
// with the given throughput: per-target flows are cycle-canceled, and the
// carry rate of each edge is tightened to the maximum per-target flow it
// must cover (the LP may leave slack in y within the port capacity).
func (f *BroadcastFragment) Extract(sol *lp.Solution, tp rat.Rat) *BroadcastSolution {
	flow := core.NewFlow[core.Commodity](f.Problem.Platform)
	flow.Throughput = rat.Copy(tp)
	for k, v := range f.sends {
		flow.SetSend(k.e.From, k.e.To, core.Commodity{Src: f.Problem.Source, Dst: k.t}, sol.Value(v))
	}
	core.CancelCycles(flow)

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
	outTot := make(map[graph.NodeID]rat.Rat)
	inTot := make(map[graph.NodeID]rat.Rat)
	for e, r := range s.Carry {
		occ := rat.Mul(r, p.Cost(e.From, e.To))
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("broadcast: edge %s→%s occupation %s > 1",
				p.Node(e.From).Name, p.Node(e.To).Name, occ.RatString())
		}
		if outTot[e.From] == nil {
			outTot[e.From] = rat.Zero()
		}
		if inTot[e.To] == nil {
			inTot[e.To] = rat.Zero()
		}
		outTot[e.From].Add(outTot[e.From], occ)
		inTot[e.To].Add(inTot[e.To], occ)
	}
	for id, occ := range outTot {
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("broadcast: node %s sends for %s > 1 per time unit",
				p.Node(id).Name, occ.RatString())
		}
	}
	for id, occ := range inTot {
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("broadcast: node %s receives for %s > 1 per time unit",
				p.Node(id).Name, occ.RatString())
		}
	}
	for _, t := range s.Problem.Targets {
		com := core.Commodity{Src: s.Problem.Source, Dst: t}
		for _, n := range p.Nodes() {
			in, out := s.Flow.InflowOutflow(n.ID, com)
			switch n.ID {
			case s.Problem.Source:
				// The source mints messages; only its emissions matter.
			case t:
				if !rat.IsZero(out) {
					return fmt.Errorf("broadcast: target %s re-emits its own copy", n.Name)
				}
				if !rat.Eq(in, s.TP) {
					return fmt.Errorf("broadcast: target %s receives %s, want TP=%s",
						n.Name, in.RatString(), s.TP.RatString())
				}
			default:
				if !rat.Eq(in, out) {
					return fmt.Errorf("broadcast: conservation violated at %s for b_%s: in=%s out=%s",
						n.Name, p.Node(t).Name, in.RatString(), out.RatString())
				}
			}
		}
	}
	return nil
}

// CarryTransfer is one physical message stream of a broadcast solution:
// Rate distinct unit-size messages per time unit on the edge From→To.
type CarryTransfer struct {
	From, To graph.NodeID
	Rate     rat.Rat
}

// CarryTransfers returns the broadcast's physical demand — one transfer
// per edge at the carry rate, in deterministic order — for schedule
// construction and shared-capacity accounting.
func (s *BroadcastSolution) CarryTransfers() []CarryTransfer {
	out := make([]CarryTransfer, 0, len(s.Carry))
	for e, r := range s.Carry {
		out = append(out, CarryTransfer{From: e.From, To: e.To, Rate: rat.Copy(r)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
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
