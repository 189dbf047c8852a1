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

// flowKey identifies a transfer variable of a FlowFragment.
type flowKey struct {
	e EdgeKey
	c Commodity
}

// FlowFragment is one uniform-flow collective's share of a linear program:
// the transfer variables of its commodities, with their one-port occupancy
// registered on a (possibly shared) OccupancyBuilder. A single fragment at
// weight 1 is the paper's Section 3 (SSSP(G)) / Section 3.5 (SSPA2A(G))
// program: maximize the common throughput TP such that every commodity is
// delivered to its destination at rate TP per time unit, subject to
// per-edge occupation ≤ 1, the one-port constraints and the conservation
// law at every forwarding node. Several fragments on one model with one
// shared builder superpose concurrent collectives on the same platform
// capacity; internal/composite assembles and solves both cases.
//
// Following the paper's conservation reading ("all the packets reaching a
// node which is not their final destination are transferred"), the
// conservation equality is imposed at every node except the commodity's
// source (which mints messages) and destination (which consumes them). Two
// physically useless variable families are pruned — messages flowing into
// their own source and messages leaving their destination — which keeps the
// LP smaller and rules out self-delivery cycles that would otherwise
// inflate TP.
type FlowFragment struct {
	Platform    *graph.Platform
	Commodities []Commodity
	sends       map[flowKey]lp.Var
}

// NewFlowFragment validates the commodities and declares their transfer
// variables into m, registering each variable's busy time with occ. label
// prefixes variable names so several fragments can share one model. The
// caller emits the port constraints (occ.AddConstraints) once after every
// fragment has been declared, then calls AddFlowConstraints per fragment.
// ctx carries the solve trace, if any: assembly opens an "assemble" span
// with a "reachability" child covering the pruning-index computation.
func NewFlowFragment(ctx context.Context, m *lp.Model, label string, p *graph.Platform, commodities []Commodity, occ *OccupancyBuilder) (*FlowFragment, error) {
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

	// Reachability sets for pruning: fromSrc[s] = reachable from s;
	// toDst[d] = nodes that can reach d (reverse reachability, computed by
	// scanning each node once per destination).
	_, reachSpan := obs.StartSpan(ctx, "reachability")
	fromSrc := make(map[graph.NodeID]map[graph.NodeID]bool)
	toDst := make(map[graph.NodeID]map[graph.NodeID]bool)
	for _, c := range commodities {
		if fromSrc[c.Src] == nil {
			set := make(map[graph.NodeID]bool)
			for _, n := range p.ReachableFrom(c.Src) {
				set[n] = true
			}
			fromSrc[c.Src] = set
		}
		if toDst[c.Dst] == nil {
			set := make(map[graph.NodeID]bool)
			for _, n := range p.Nodes() {
				if n.ID == c.Dst || p.CanReach(n.ID, c.Dst) {
					set[n.ID] = true
				}
			}
			toDst[c.Dst] = set
		}
	}
	reachSpan.SetAttr("sources", len(fromSrc))
	reachSpan.SetAttr("destinations", len(toDst))
	reachSpan.End()

	f := &FlowFragment{
		Platform:    p,
		Commodities: append([]Commodity(nil), commodities...),
		sends:       make(map[flowKey]lp.Var),
	}
	allowed := func(e graph.Edge, c Commodity) bool {
		// A useful transfer starts somewhere the commodity can exist and
		// ends somewhere it can still make progress; never into its own
		// source, never out of its destination.
		return e.To != c.Src && e.From != c.Dst &&
			fromSrc[c.Src][e.From] && toDst[c.Dst][e.To]
	}
	for _, e := range p.Edges() {
		for _, c := range commodities {
			if !allowed(e, c) {
				continue
			}
			name := fmt.Sprintf("%ssend(%s->%s,m%s_%s)", label,
				p.Node(e.From).Name, p.Node(e.To).Name,
				p.Node(c.Src).Name, p.Node(c.Dst).Name)
			v := m.Var(name)
			f.sends[flowKey{EdgeKey{e.From, e.To}, c}] = v
			occ.Add(e.From, e.To, v, e.Cost) // unit-size messages
		}
	}
	asmSpan.SetAttr("vars", len(f.sends))
	return f, nil
}

// AddFlowConstraints adds the fragment's conservation constraints at
// forwarding nodes and the delivery of weight·tp at every destination.
// With weight 1 as the model's only fragment this is exactly the plain
// SSSP/SSPA2A program; in a shared model, weight scales the member's
// delivered rate relative to the common objective tp.
func (f *FlowFragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	p := f.Platform
	for _, c := range f.Commodities {
		for _, n := range p.Nodes() {
			if n.ID == c.Src {
				continue
			}
			in := lp.NewExpr()
			for _, e := range p.InEdges(n.ID) {
				if v, ok := f.sends[flowKey{EdgeKey{e.From, e.To}, c}]; ok {
					in = in.Plus1(v)
				}
			}
			if n.ID == c.Dst {
				in = in.Minus(weight, tp)
				m.AddConstraint(
					fmt.Sprintf("%sdeliver(%s,m%s_%s)", label, n.Name, p.Node(c.Src).Name, p.Node(c.Dst).Name),
					in, lp.Eq, rat.Zero())
				continue
			}
			out := lp.NewExpr()
			for _, e := range p.OutEdges(n.ID) {
				if v, ok := f.sends[flowKey{EdgeKey{e.From, e.To}, c}]; ok {
					out = out.Plus1(v)
				}
			}
			if len(in) == 0 && len(out) == 0 {
				continue
			}
			cons := in
			for _, t := range out {
				cons = cons.Minus(t.Coeff, t.Var)
			}
			m.AddConstraint(
				fmt.Sprintf("%sconserve(%s,m%s_%s)", label, n.Name, p.Node(c.Src).Name, p.Node(c.Dst).Name),
				cons, lp.Eq, rat.Zero())
		}
	}
}

// Extract reads the fragment's solved rates into a typed flow with the
// given throughput, canceling zero-net circulations.
func (f *FlowFragment) Extract(sol *lp.Solution, tp rat.Rat) *Flow[Commodity] {
	out := NewFlow[Commodity](f.Platform)
	out.Throughput = rat.Copy(tp)
	for k, v := range f.sends {
		out.SetSend(k.e.From, k.e.To, k.c, sol.Value(v))
	}
	CancelCycles(out)
	return out
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
