package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rat"
)

// Commodity is one message stream of a forwarding collective: unit-size
// messages emitted by Src and destined to Dst. A scatter is the commodity
// set {(source, t) : t ∈ targets}; a gossip (personalized all-to-all) is
// {(s, t) : s ∈ S, t ∈ T, s ≠ t}.
type Commodity struct {
	Src, Dst graph.NodeID
}

// FlowStats reports the size, sparsity and solve cost of the solved
// linear program.
type FlowStats struct {
	Vars        int
	Constraints int
	// NonZeros counts the constraint matrix's nonzero coefficients and
	// Density is NonZeros over the Vars×Constraints area — the quantities
	// the sparse tableau exploits (per-pivot cost scales with row nonzeros,
	// not columns).
	NonZeros int
	Density  float64 //sslint:allow outbound telemetry only: density never enters solver arithmetic
	// Pivots is the total simplex pivot count; Phase1Pivots is the share
	// spent finding a feasible basis. Together they let sweep aggregates
	// track solver cost, not just throughput.
	Pivots       int
	Phase1Pivots int
}

// StatsOf reads the LP size, sparsity and pivot counts of a solved model.
func StatsOf(m *lp.Model, sol *lp.Solution) FlowStats {
	ms := m.Stats()
	return FlowStats{
		Vars:         ms.Vars,
		Constraints:  ms.Constraints,
		NonZeros:     ms.NonZeros,
		Density:      ms.Density,
		Pivots:       sol.Iterations,
		Phase1Pivots: sol.Phase1Iterations,
	}
}

// flowKey identifies a transfer variable of a forwarding fragment.
type flowKey struct {
	e EdgeKey
	c Commodity
}

// FlowRows is what every forwarding fragment — scatter, gossip and
// broadcast — shares: the reachability index that prunes its transfer
// variables, the variables themselves (one per edge and commodity), the
// conservation and delivery rows over them, and the read-out of the
// solved flow. The fragments differ only in their commodities, in how a
// commodity is named in variable and row names, and in broadcast's carry
// rates, which it declares beside the transfers.
//
// Following the paper's conservation reading ("all the packets reaching a
// node which is not their final destination are transferred"), the
// conservation equality is imposed at every node except the commodity's
// source (which mints messages) and destination (which consumes them). Two
// physically useless variable families are pruned — messages flowing into
// their own source and messages leaving their destination — which keeps the
// LP smaller and rules out self-delivery cycles that would otherwise
// inflate TP.
type FlowRows struct {
	p     *graph.Platform
	comms []Commodity
	name  func(Commodity) string
	// fromSrc[s] is the set of nodes reachable from s; toDst[d] the set of
	// nodes that can reach d, d included.
	fromSrc, toDst map[graph.NodeID]map[graph.NodeID]bool
	sends          map[flowKey]lp.Var
}

// NewFlowRows indexes, for the commodities on p, which nodes each source
// reaches and which nodes reach each destination, under a "reachability"
// span of ctx. name renders a commodity in variable and row names.
func NewFlowRows(ctx context.Context, p *graph.Platform, comms []Commodity, name func(Commodity) string) *FlowRows {
	_, span := obs.StartSpan(ctx, "reachability")
	r := &FlowRows{
		p:       p,
		comms:   append([]Commodity(nil), comms...),
		name:    name,
		fromSrc: make(map[graph.NodeID]map[graph.NodeID]bool),
		toDst:   make(map[graph.NodeID]map[graph.NodeID]bool),
		sends:   make(map[flowKey]lp.Var),
	}
	for _, c := range comms {
		if r.fromSrc[c.Src] == nil {
			set := make(map[graph.NodeID]bool)
			for _, n := range p.ReachableFrom(c.Src) {
				set[n] = true
			}
			r.fromSrc[c.Src] = set
		}
		if r.toDst[c.Dst] == nil {
			set := make(map[graph.NodeID]bool)
			for _, n := range p.Nodes() {
				if n.ID == c.Dst || p.CanReach(n.ID, c.Dst) {
					set[n.ID] = true
				}
			}
			r.toDst[c.Dst] = set
		}
	}
	span.SetAttr("sources", len(r.fromSrc))
	span.SetAttr("destinations", len(r.toDst))
	span.End()
	return r
}

// Useful reports whether commodity c may cross edge e: a useful transfer
// starts somewhere the commodity can exist and ends somewhere it can
// still make progress; never into its own source, never out of its
// destination.
func (r *FlowRows) Useful(e graph.Edge, c Commodity) bool {
	return e.To != c.Src && e.From != c.Dst && r.fromSrc[c.Src][e.From] && r.toDst[c.Dst][e.To]
}

// Declare declares into m the transfer variable of commodity c on edge e,
// named "<label>send(<from>-><to>,<name>)".
func (r *FlowRows) Declare(m *lp.Model, label string, e graph.Edge, c Commodity) lp.Var {
	v := m.Var(fmt.Sprintf("%ssend(%s->%s,%s)", label, r.p.Node(e.From).Name, r.p.Node(e.To).Name, r.name(c)))
	r.sends[flowKey{EdgeKey{e.From, e.To}, c}] = v
	return v
}

// Len returns the number of declared transfer variables.
func (r *FlowRows) Len() int { return len(r.sends) }

// AddComputeVars declares nothing: a forwarding collective runs no tasks.
func (r *FlowRows) AddComputeVars(*lp.Model, string, *ComputeBuilder) {}

// AddFlowConstraints adds, for every commodity in order, its conservation
// at every forwarding node with traffic and its delivery of weight·tp at
// its destination. With weight 1 as the model's only fragment this is
// exactly the plain SSSP/SSPA2A program; in a shared model, weight scales
// the member's delivered rate relative to the common objective tp.
func (r *FlowRows) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	sum := func(edges []graph.Edge, c Commodity) lp.Expr {
		expr := lp.NewExpr()
		for _, e := range edges {
			if v, ok := r.sends[flowKey{EdgeKey{e.From, e.To}, c}]; ok {
				expr = expr.Plus1(v)
			}
		}
		return expr
	}
	for _, c := range r.comms {
		for _, n := range r.p.Nodes() {
			if n.ID == c.Src {
				continue
			}
			in := sum(r.p.InEdges(n.ID), c)
			if n.ID == c.Dst {
				m.AddConstraint(fmt.Sprintf("%sdeliver(%s,%s)", label, n.Name, r.name(c)),
					in.Minus(weight, tp), lp.Eq, rat.Zero())
				continue
			}
			out := sum(r.p.OutEdges(n.ID), c)
			if len(in) == 0 && len(out) == 0 {
				continue
			}
			cons := in
			for _, t := range out {
				cons = cons.Minus(t.Coeff, t.Var)
			}
			m.AddConstraint(fmt.Sprintf("%sconserve(%s,%s)", label, n.Name, r.name(c)),
				cons, lp.Eq, rat.Zero())
		}
	}
}

// Flow reads the solved transfer rates into a typed flow with throughput
// tp, canceling zero-net circulations.
func (r *FlowRows) Flow(sol *lp.Solution, tp rat.Rat) *Flow[Commodity] {
	out := NewFlow[Commodity](r.p)
	out.Throughput = rat.Copy(tp)
	for k, v := range r.sends {
		out.SetSend(k.e.From, k.e.To, k.c, sol.Value(v))
	}
	CancelCycles(out)
	return out
}

// FlowFragment is one scatter's or gossip's share of a linear program: the
// transfer variables of its commodities, with their one-port occupancy
// registered on a (possibly shared) OccupancyBuilder. A single fragment at
// weight 1 is the paper's Section 3 (SSSP(G)) / Section 3.5 (SSPA2A(G))
// program: maximize the common throughput TP such that every commodity is
// delivered to its destination at rate TP per time unit, subject to
// per-edge occupation ≤ 1, the one-port constraints and the conservation
// law at every forwarding node. Several fragments on one model with one
// shared builder superpose concurrent collectives on the same platform
// capacity; internal/composite assembles and solves both cases.
type FlowFragment struct {
	*FlowRows
	part func(*Flow[Commodity]) Part
}

// NewFlowFragment validates the commodities and declares their transfer
// variables into m, named by commodity "m<src>_<dst>" and registering each
// variable's busy time with occ. label prefixes variable names so several
// fragments can share one model. The caller emits the port constraints
// (occ.AddConstraints) once after every fragment has been declared, then
// calls AddFlowConstraints per fragment. part wraps the extracted flow as
// the kind's solution. ctx carries the solve trace, if any: assembly opens
// an "assemble" span with a "reachability" child covering the
// pruning-index computation.
func NewFlowFragment(ctx context.Context, m *lp.Model, label string, p *graph.Platform, commodities []Commodity, occ *OccupancyBuilder, part func(*Flow[Commodity]) Part) (*FlowFragment, error) {
	ctx, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", "flow")
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("commodities", len(commodities))
	defer asmSpan.End()
	if len(commodities) == 0 {
		return nil, fmt.Errorf("core: no commodities")
	}
	seen := make(map[Commodity]bool)
	for _, c := range commodities {
		if c.Src == c.Dst {
			return nil, fmt.Errorf("core: commodity %s→%s has identical endpoints",
				p.Node(c.Src).Name, p.Node(c.Dst).Name)
		}
		if seen[c] {
			return nil, fmt.Errorf("core: duplicate commodity %s→%s",
				p.Node(c.Src).Name, p.Node(c.Dst).Name)
		}
		seen[c] = true
		if !p.CanReach(c.Src, c.Dst) {
			return nil, fmt.Errorf("core: %s cannot reach %s: throughput is zero",
				p.Node(c.Src).Name, p.Node(c.Dst).Name)
		}
	}
	rows := NewFlowRows(ctx, p, commodities, func(c Commodity) string {
		return "m" + p.Node(c.Src).Name + "_" + p.Node(c.Dst).Name
	})
	for _, e := range p.Edges() {
		for _, c := range commodities {
			if rows.Useful(e, c) {
				occ.Add(e.From, e.To, rows.Declare(m, label, e, c), e.Cost) // unit-size messages
			}
		}
	}
	asmSpan.SetAttr("vars", rows.Len())
	return &FlowFragment{FlowRows: rows, part: part}, nil
}

// Extract reads the fragment's solved rates into a typed flow with the
// given throughput, canceling zero-net circulations, and wraps it as the
// kind's solution.
func (f *FlowFragment) Extract(sol *lp.Solution, tp rat.Rat) Part {
	return f.part(f.Flow(sol, tp))
}

// CancelCycles removes pure circulations from each commodity of the flow:
// cycles of positive rate that do not change any node's net balance (the
// simplex can return them at zero objective cost; they would only waste
// schedule bandwidth). The net delivery of every commodity is unchanged.
func CancelCycles[C comparable](f *Flow[C]) {
	// Collect the commodity set.
	comms := make(map[C]bool)
	for _, m := range f.Sends {
		for c := range m {
			comms[c] = true
		}
	}
	for c := range comms {
		for cancelOneCycle(f, c) {
		}
	}
}

// cancelOneCycle finds one cycle in the support of commodity c and cancels
// it; reports whether a cycle was found.
func cancelOneCycle[C comparable](f *Flow[C], c C) bool {
	// Support adjacency.
	adj := make(map[graph.NodeID][]graph.NodeID)
	rate := make(map[EdgeKey]rat.Rat)
	for k, m := range f.Sends {
		if r, ok := m[c]; ok && r.Sign() > 0 {
			adj[k.From] = append(adj[k.From], k.To) //sslint:allow order-insensitive: every adjacency list is sorted just below
			rate[k] = r
		}
	}
	for _, succ := range adj {
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[graph.NodeID]int)
	parent := make(map[graph.NodeID]graph.NodeID)
	var cycle []EdgeKey
	var dfs func(n graph.NodeID) bool
	dfs = func(n graph.NodeID) bool {
		color[n] = gray
		for _, t := range adj[n] {
			switch color[t] {
			case white:
				parent[t] = n
				if dfs(t) {
					return true
				}
			case gray:
				// Found a cycle t → … → n → t.
				cycle = []EdgeKey{{n, t}}
				for cur := n; cur != t; cur = parent[cur] {
					cycle = append(cycle, EdgeKey{parent[cur], cur})
				}
				return true
			}
		}
		color[n] = black
		return false
	}
	nodes := make([]graph.NodeID, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			break
		}
	}
	if cycle == nil {
		return false
	}
	// Cancel by the minimum rate on the cycle.
	min := rate[cycle[0]]
	for _, e := range cycle[1:] {
		if rate[e].Cmp(min) < 0 {
			min = rate[e]
		}
	}
	min = rat.Copy(min)
	for _, e := range cycle {
		nr := rat.Sub(f.Sends[e][c], min)
		if nr.Sign() == 0 {
			delete(f.Sends[e], c)
			if len(f.Sends[e]) == 0 {
				delete(f.Sends, e)
			}
		} else {
			f.Sends[e][c] = nr
		}
	}
	return true
}
