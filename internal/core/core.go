// Package core implements the shared steady-state framework of the paper
// (Section 2): the one-port operation model, the per-edge occupation
// variables s(Pi→Pj) and their constraints (equations (1)–(3)), the typed
// flow representation and the LP rows shared by the forwarding kinds
// (scatter, broadcast, gossip), and the asymptotic-optimality bookkeeping
// of Section 3.4 (buffer sizes, initialization latency, steady period
// count).
//
// Every collective in this repository follows the same recipe: declare
// fractional per-edge message rates (plus, for reduce, fractional per-node
// task rates) as an LP fragment, register their busy time on the shared
// OccupancyBuilder and ComputeBuilder, and add the collective's own
// conservation and delivery rows. The package also holds the contract of
// that recipe, which every kind implements: a Collective problem declares
// a Fragment, the Fragment extracts a Part, and the Part lists its Demand
// on the platform. internal/composite owns the model and drives each
// member through the contract alone: it assembles the fragments of one or
// more collectives, maximizes the throughput TP, and hands the rational
// solution to the schedule and tree-extraction machinery.
//
// A solved part is checked against the platform's capacity in one place:
// VerifyCapacity sums what one or more Demands ask of every edge, port and
// compute node. Every part's Verify runs it on the part's own demand, and
// a composite runs it on all members' demands together. A Flow holds
// rates only; it checks nothing itself.
package core

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rat"
)

// EdgeKey identifies a directed edge of the platform.
type EdgeKey struct {
	From, To graph.NodeID
}

// OccupancyBuilder accumulates, per directed edge, the linear expression
// for the edge's busy fraction
//
//	s(Pi→Pj) = Σ_types send(Pi→Pj, type) · size(type) · c(i,j)
//
// (equations (4) of the scatter program and (8) of the reduce program) and
// then emits the one-port constraints: every edge fraction ≤ 1, and per
// node the sum of outgoing (resp. incoming) fractions ≤ 1.
type OccupancyBuilder struct {
	p     *graph.Platform
	terms map[EdgeKey]lp.Expr
}

// NewOccupancy returns a builder for the platform.
func NewOccupancy(p *graph.Platform) *OccupancyBuilder {
	return &OccupancyBuilder{p: p, terms: make(map[EdgeKey]lp.Expr)}
}

// Add records that variable v contributes v·timePerUnit to the occupation
// of edge from→to, where timePerUnit is size(type)·c(from,to).
func (b *OccupancyBuilder) Add(from, to graph.NodeID, v lp.Var, timePerUnit rat.Rat) {
	k := EdgeKey{from, to}
	b.terms[k] = b.terms[k].Plus(timePerUnit, v)
}

// AddConstraints adds to the model, for every edge with recorded traffic,
// the constraint s(e) ≤ 1, and for every node the one-port constraints
// Σ_out s ≤ 1 and Σ_in s ≤ 1.
func (b *OccupancyBuilder) AddConstraints(m *lp.Model) {
	outBy := make(map[graph.NodeID]lp.Expr)
	inBy := make(map[graph.NodeID]lp.Expr)
	// Deterministic constraint order keeps solver runs reproducible.
	keys := make([]EdgeKey, 0, len(b.terms))
	for k := range b.terms {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, k := range keys {
		expr := b.terms[k]
		m.AddConstraint(
			fmt.Sprintf("edge_occ(%s->%s)", b.p.Node(k.From).Name, b.p.Node(k.To).Name),
			expr, lp.Leq, rat.One())
		// Concat merges the sorted sparse vectors, so the per-node one-port
		// rows stay canonical without a densify-and-rescan pass.
		outBy[k.From] = outBy[k.From].Concat(expr)
		inBy[k.To] = inBy[k.To].Concat(expr)
	}
	for _, n := range b.p.Nodes() {
		if e, ok := outBy[n.ID]; ok {
			m.AddConstraint(fmt.Sprintf("oneport_out(%s)", n.Name), e, lp.Leq, rat.One())
		}
		if e, ok := inBy[n.ID]; ok {
			m.AddConstraint(fmt.Sprintf("oneport_in(%s)", n.Name), e, lp.Leq, rat.One())
		}
	}
}

// ComputeBuilder accumulates, per node, the linear expression for the
// node's compute-occupation fraction
//
//	α(P_i) = Σ_tasks cons(P_i, T) · w(P_i, T)
//
// (equation (9) of the reduce program) and then emits α(P_i) ≤ 1 for every
// node with registered work. Like OccupancyBuilder it may be shared by
// several collectives assembled into one model: superposed reduce-family
// members then compete for each node's compute time exactly as they
// compete for its ports.
type ComputeBuilder struct {
	p     *graph.Platform
	terms map[graph.NodeID]lp.Expr
}

// NewCompute returns a compute-occupation builder for the platform.
func NewCompute(p *graph.Platform) *ComputeBuilder {
	return &ComputeBuilder{p: p, terms: make(map[graph.NodeID]lp.Expr)}
}

// Add records that variable v contributes v·timePerTask to the compute
// occupation of node.
func (b *ComputeBuilder) Add(node graph.NodeID, v lp.Var, timePerTask rat.Rat) {
	b.terms[node] = b.terms[node].Plus(timePerTask, v)
}

// AddConstraints adds α(P_i) ≤ 1 for every node with registered work, in
// node-ID order.
func (b *ComputeBuilder) AddConstraints(m *lp.Model) {
	ids := make([]graph.NodeID, 0, len(b.terms))
	for id := range b.terms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m.AddConstraint(fmt.Sprintf("compute(%s)", b.p.Node(id).Name),
			b.terms[id], lp.Leq, rat.One())
	}
}

// Flow is the solved steady-state communication pattern of a forwarding
// collective (scatter, broadcast, gossip): for every directed edge and
// message type C, the fractional number of messages of that type crossing
// the edge per time unit, plus the achieved throughput.
type Flow[C comparable] struct {
	Platform   *graph.Platform
	Throughput rat.Rat
	// Sends[e][c] is the per-time-unit rate of messages of type c on e.
	// Zero-rate entries are omitted.
	Sends map[EdgeKey]map[C]rat.Rat
}

// NewFlow returns an empty flow for the platform.
func NewFlow[C comparable](p *graph.Platform) *Flow[C] {
	return &Flow[C]{Platform: p, Throughput: rat.Zero(), Sends: make(map[EdgeKey]map[C]rat.Rat)}
}

// SetSend records the rate of type c on edge from→to (dropping zeros).
func (f *Flow[C]) SetSend(from, to graph.NodeID, c C, rate rat.Rat) {
	if rate.Sign() == 0 {
		return
	}
	if rate.Sign() < 0 {
		panic("core: negative send rate")
	}
	k := EdgeKey{from, to}
	if f.Sends[k] == nil {
		f.Sends[k] = make(map[C]rat.Rat)
	}
	f.Sends[k][c] = rat.Copy(rate)
}

// Send returns the rate of type c on edge from→to (zero when absent).
func (f *Flow[C]) Send(from, to graph.NodeID, c C) rat.Rat {
	if m := f.Sends[EdgeKey{from, to}]; m != nil {
		if r, ok := m[c]; ok {
			return rat.Copy(r)
		}
	}
	return rat.Zero()
}

// AllRates returns every send rate plus the throughput — the input to the
// period computation (LCM of denominators).
func (f *Flow[C]) AllRates() []rat.Rat {
	out := []rat.Rat{rat.Copy(f.Throughput)}
	for _, m := range f.Sends {
		for _, r := range m {
			out = append(out, rat.Copy(r)) //sslint:allow order-insensitive: rates feed DenominatorLCM
		}
	}
	return out
}

// Period returns the smallest period T such that T·rate is an integer for
// every rate in the flow (the LCM of all denominators).
func (f *Flow[C]) Period() *big.Int {
	return rat.DenominatorLCM(f.AllRates()...)
}

// InflowOutflow sums, in one pass over the sends, the incoming and the
// outgoing rate of every listed message type at every node: in[k][n] and
// out[k][n] for types[k] at node n. Sends of unlisted types are skipped.
// The conservation checks read every cell from it.
func (f *Flow[C]) InflowOutflow(types []C) (in, out [][]big.Rat) {
	index := make(map[C]int, len(types))
	for k, c := range types {
		index[c] = k
	}
	in, out = cells(len(types), f.Platform.NumNodes()), cells(len(types), f.Platform.NumNodes())
	for e, m := range f.Sends {
		for c, r := range m {
			if k, ok := index[c]; ok {
				in[k][e.To].Add(&in[k][e.To], r)
				out[k][e.From].Add(&out[k][e.From], r)
			}
		}
	}
	return in, out
}

// cells returns rows×cols zero rationals, one row slice per row.
func cells(rows, cols int) [][]big.Rat {
	flat := make([]big.Rat, rows*cols)
	out := make([][]big.Rat, rows)
	for k := range out {
		out[k] = flat[k*cols : (k+1)*cols]
	}
	return out
}

// Protocol carries the parameters of the asymptotically optimal schedule
// of Section 3.4, for a periodic schedule of integer period T on a graph of
// hop diameter D, run over a horizon of K time units:
//
//	I = D·T               (initialization latency bound)
//	r = ⌊(K − 2I − T)/T⌋  (full steady-state periods)
//	steady(G,K) = r·T·TP  (operations completed in steady state)
//
// Lemma 1 bounds any schedule by opt(G,K) ≤ TP·K, so the achieved ratio
// steady/opt → 1 as K grows (Proposition 1/3).
type Protocol struct {
	Period   *big.Int
	Diameter int
	Horizon  *big.Int
}

// InitLatency returns I = D·T.
func (pr Protocol) InitLatency() *big.Int {
	return new(big.Int).Mul(big.NewInt(int64(pr.Diameter)), pr.Period)
}

// SteadyPeriods returns r = ⌊(K − 2I − T)/T⌋, clamped at 0.
func (pr Protocol) SteadyPeriods() *big.Int {
	i := pr.InitLatency()
	num := new(big.Int).Set(pr.Horizon)
	num.Sub(num, new(big.Int).Lsh(i, 1))
	num.Sub(num, pr.Period)
	if num.Sign() < 0 {
		return big.NewInt(0)
	}
	return num.Div(num, pr.Period)
}

// SteadyOperations returns steady(G,K) = r·T·TP as an exact rational.
func (pr Protocol) SteadyOperations(tp rat.Rat) rat.Rat {
	rT := new(big.Int).Mul(pr.SteadyPeriods(), pr.Period)
	return rat.Mul(new(big.Rat).SetInt(rT), tp)
}

// OptimalBound returns the Lemma 1 bound opt(G,K) ≤ TP·K.
func (pr Protocol) OptimalBound(tp rat.Rat) rat.Rat {
	return rat.Mul(new(big.Rat).SetInt(pr.Horizon), tp)
}

// Ratio returns steady(G,K)/(TP·K) — the fraction of the optimal bound the
// concrete protocol achieves (→ 1 as the horizon grows). Returns 0 when
// the bound is 0.
func (pr Protocol) Ratio(tp rat.Rat) rat.Rat {
	bound := pr.OptimalBound(tp)
	if bound.Sign() == 0 {
		return rat.Zero()
	}
	return rat.Div(pr.SteadyOperations(tp), bound)
}
