package reduce

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

// vars is the LP side of one reduce-family instance: its transfer and task
// variables. Fragment and prefixFragment embed it and differ only in the
// transfers they drop and in the (node, range) cells they skip or charge
// with the delivery weight·tp.
type vars struct {
	fam *Family
	// compute lists the nodes that get task variables.
	compute []graph.NodeID
	Sends   map[SendKey]lp.Var
	Tasks   map[TaskKey]lp.Var
}

// declare declares the transfer variables of fam into m — every edge and
// range, except a leaf v[i,i] flowing into its owner and a range that drop
// names at the sending node — registering their busy time with occ. label
// prefixes variable names so several fragments can share one model; only
// restricts the nodes AddComputeVars gives tasks (nil: every capable
// node). ctx carries the solve trace, if any: assembly opens an
// "assemble" span.
func declare(ctx context.Context, kind string, fam *Family, only []graph.NodeID, m *lp.Model, label string, occ *core.OccupancyBuilder, drop func(graph.NodeID, Range) bool) vars {
	_, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", kind)
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("participants", len(fam.Order))
	v := vars{fam: fam, compute: computeNodes(fam.Platform, only), Sends: make(map[SendKey]lp.Var), Tasks: make(map[TaskKey]lp.Var)}
	for _, e := range fam.Platform.Edges() {
		for _, r := range Ranges(fam.N()) {
			if (r.IsLeaf() && e.To == fam.Order[r.K]) || drop(e.From, r) {
				continue
			}
			x := m.Var(fmt.Sprintf("%ssend(%s->%s,%s)", label,
				fam.Platform.Node(e.From).Name, fam.Platform.Node(e.To).Name, r))
			v.Sends[SendKey{e.From, e.To, r}] = x
			occ.Add(e.From, e.To, x, rat.Mul(fam.SizeOf(r), e.Cost))
		}
	}
	asmSpan.SetAttr("vars", len(v.Sends))
	asmSpan.End()
	return v
}

// AddComputeVars declares the computation variables (equations (7) and
// (9), with α substituted out), registering each task's time with comp.
func (v *vars) AddComputeVars(m *lp.Model, label string, comp *core.ComputeBuilder) {
	for _, node := range v.compute {
		for _, t := range Tasks(v.fam.N()) {
			x := m.Var(fmt.Sprintf("%scons(%s,%s)", label, v.fam.Platform.Node(node).Name, t))
			v.Tasks[TaskKey{node, t}] = x
			comp.Add(node, x, v.fam.TaskTime(node, t))
		}
	}
}

// balance is the net supply of range r at node: inflow plus production
// minus outflow minus consumption.
func (v *vars) balance(node graph.NodeID, r Range) lp.Expr {
	p, n := v.fam.Platform, v.fam.N()
	expr := lp.NewExpr()
	for _, e := range p.InEdges(node) {
		if x, ok := v.Sends[SendKey{e.From, e.To, r}]; ok {
			expr = expr.Plus1(x)
		}
	}
	// Production: tasks T_{k,l,m} with result [k,m] = r.
	for l := r.K; l < r.M; l++ {
		if x, ok := v.Tasks[TaskKey{node, Task{r.K, l, r.M}}]; ok {
			expr = expr.Plus1(x)
		}
	}
	for _, e := range p.OutEdges(node) {
		if x, ok := v.Sends[SendKey{e.From, e.To, r}]; ok {
			expr = expr.Minus(rat.One(), x)
		}
	}
	// Consumption: as left operand T_{k,m,n} (n > m) or as right operand
	// T_{n,k-1,m} (n < k).
	for nn := r.M + 1; nn <= n; nn++ {
		if x, ok := v.Tasks[TaskKey{node, Task{r.K, r.M, nn}}]; ok {
			expr = expr.Minus(rat.One(), x)
		}
	}
	for nn := 0; nn < r.K; nn++ {
		if x, ok := v.Tasks[TaskKey{node, Task{nn, r.K - 1, r.M}}]; ok {
			expr = expr.Minus(rat.One(), x)
		}
	}
	return expr
}

// conserve adds the conservation law (10) at every node for every range,
// except the unlimited leaf v[i,i] at its owner and the cells skip names;
// a cell that owes delivers weight·tp of its range on top of balancing.
func (v *vars) conserve(m *lp.Model, label string, tp lp.Var, weight rat.Rat, skip, owes func(graph.NodeID, Range) bool) {
	for _, node := range v.fam.Platform.Nodes() {
		for _, r := range Ranges(v.fam.N()) {
			if (r.IsLeaf() && v.fam.Order[r.K] == node.ID) || skip(node.ID, r) {
				continue
			}
			expr := v.balance(node.ID, r)
			if owes(node.ID, r) {
				expr = expr.Minus(weight, tp)
			}
			if len(expr) == 0 {
				continue
			}
			m.AddConstraint(fmt.Sprintf("%sconserve(%s,%s)", label, node.Name, r), expr, lp.Eq, rat.Zero())
		}
	}
}

// rates reads the positive solved rates of the variables, with throughput
// tp, canceling zero-net send circulations per range: the simplex may
// return them at no objective cost, a replay never fills one that no unit
// enters, and the tree extractor requires cycle-free transfer support to
// terminate.
func (v *vars) rates(sol *lp.Solution, tp rat.Rat) Rates {
	f := core.NewFlow[Range](v.fam.Platform)
	for k, r := range positive(sol, v.Sends) {
		f.SetSend(k.From, k.To, k.R, r)
	}
	core.CancelCycles(f)
	sends := make(map[SendKey]rat.Rat)
	for e, types := range f.Sends {
		for rg, r := range types {
			sends[SendKey{e.From, e.To, rg}] = r
		}
	}
	return Rates{TP: rat.Copy(tp), Sends: sends, Tasks: positive(sol, v.Tasks)}
}

// positive returns the solved values of vars that are positive.
func positive[K comparable](sol *lp.Solution, vars map[K]lp.Var) map[K]rat.Rat {
	out := make(map[K]rat.Rat)
	for k, x := range vars {
		if val := sol.Value(x); val.Sign() > 0 {
			out[k] = val
		}
	}
	return out
}

// never is the predicate of a kind that drops, skips or owes no cell.
func never(graph.NodeID, Range) bool { return false }

// computeNodes returns the nodes of p allowed to run reduction tasks, in
// node order: every non-router node with positive speed, intersected with
// only when it is non-nil (a nil restriction allows every capable node).
func computeNodes(p *graph.Platform, only []graph.NodeID) []graph.NodeID {
	allowed := func(graph.NodeID) bool { return true }
	if only != nil {
		set := make(map[graph.NodeID]bool, len(only))
		for _, id := range only {
			set[id] = true
		}
		allowed = func(id graph.NodeID) bool { return set[id] }
	}
	var out []graph.NodeID
	for _, n := range p.Nodes() {
		if !n.Router && n.Speed.Sign() > 0 && allowed(n.ID) {
			out = append(out, n.ID)
		}
	}
	return out
}

// Rates is the steady state of a solved reduce-family instance: the
// throughput TP and the rate of every transfer and task. Solution and
// PrefixSolution embed it.
type Rates struct {
	TP    rat.Rat
	Sends map[SendKey]rat.Rat
	Tasks map[TaskKey]rat.Rat
}

// Throughput returns TP: operations completed per time unit.
func (s *Rates) Throughput() rat.Rat { return rat.Copy(s.TP) }

// AllRates returns every rate in the solution plus TP (for the period
// computation).
func (s *Rates) AllRates() []rat.Rat {
	out := []rat.Rat{rat.Copy(s.TP)}
	for _, r := range s.Sends {
		out = append(out, rat.Copy(r)) //sslint:allow order-insensitive: rates feed DenominatorLCM
	}
	for _, r := range s.Tasks {
		out = append(out, rat.Copy(r)) //sslint:allow order-insensitive: rates feed DenominatorLCM
	}
	return out
}

// Period returns the integer schedule period (LCM of all denominators).
func (s *Rates) Period() *big.Int { return rat.DenominatorLCM(s.AllRates()...) }

// Counts scales the transfer and task rates to integer counts per period,
// keeping the positive ones: the integer application of a period that is
// a multiple of Period().
func (s *Rates) Counts(period *big.Int) (map[SendKey]*big.Int, map[TaskKey]*big.Int) {
	return counts(s.Sends, period), counts(s.Tasks, period)
}

// counts scales rates to positive integer counts per period.
func counts[K comparable](rates map[K]rat.Rat, period *big.Int) map[K]*big.Int {
	out := make(map[K]*big.Int)
	for k, r := range rates {
		if c := rat.ScaleToInt(r, period); c.Sign() > 0 {
			out[k] = c
		}
	}
	return out
}

// demand lists one transfer per edge and partial result, labeled by its
// range and sized by fam.SizeOf, and the compute time of the tasks.
func (s *Rates) demand(fam *Family) core.Demand {
	d := core.Demand{ComputeTime: computeTime(s.Tasks, fam.TaskTime)}
	for k, r := range s.Sends {
		d.Transfers = append(d.Transfers, core.FlowTransfer{From: k.From, To: k.To, Label: k.R.String(), Size: fam.SizeOf(k.R), Rate: rat.Copy(r)}) //sslint:allow order-insensitive: a demand's transfers are unordered by contract
	}
	return d
}

// computeTime sums, per node, the time its tasks take per time unit:
// α(P) = Σ_T cons(P, T) · w(P, T).
func computeTime(tasks map[TaskKey]rat.Rat, taskTime func(graph.NodeID, Task) rat.Rat) map[graph.NodeID]rat.Rat {
	alpha := make(map[graph.NodeID]rat.Rat)
	for k, r := range tasks {
		if alpha[k.Node] == nil {
			alpha[k.Node] = rat.Zero()
		}
		alpha[k.Node].Add(alpha[k.Node], rat.Mul(r, taskTime(k.Node, k.T)))
	}
	return alpha
}

// verify re-checks the family's constraints on the rates, independent of
// the LP: every task on one of computeNodes(fam.Platform, only) — checked
// first, since the demand reads task times and a router or a zero-speed
// node has none; the platform's capacity under the family's demand
// (core.VerifyCapacity: one-port and compute occupation); and the balance
// of every (node, range) cell but a leaf at its owner, which must be TP
// where owed says the cell delivers and zero elsewhere. It returns the
// first violation, prefixed by kind.
func (s *Rates) verify(kind string, fam *Family, only []graph.NodeID, owed func(graph.NodeID, Range) bool) error {
	p, n := fam.Platform, fam.N()
	allowed := make(map[graph.NodeID]bool)
	for _, id := range computeNodes(p, only) {
		allowed[id] = true
	}
	for k := range s.Tasks {
		if !allowed[k.Node] {
			return fmt.Errorf("%s: task on non-computing node %s", kind, p.Node(k.Node).Name)
		}
	}
	if err := core.VerifyCapacity(p, s.demand(fam)); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}

	ranges := Ranges(n)
	f := core.NewFlow[Range](p)
	for k, r := range s.Sends {
		f.SetSend(k.From, k.To, k.R, r)
	}
	ins, outs := f.InflowOutflow(ranges)
	for _, node := range p.Nodes() {
		for j, r := range ranges {
			if r.IsLeaf() && fam.Order[r.K] == node.ID {
				continue
			}
			bal := rat.Sub(&ins[j][node.ID], &outs[j][node.ID])
			for l := r.K; l < r.M; l++ {
				if v, ok := s.Tasks[TaskKey{node.ID, Task{r.K, l, r.M}}]; ok {
					bal.Add(bal, v)
				}
			}
			for nn := r.M + 1; nn <= n; nn++ {
				if v, ok := s.Tasks[TaskKey{node.ID, Task{r.K, r.M, nn}}]; ok {
					bal.Sub(bal, v)
				}
			}
			for nn := 0; nn < r.K; nn++ {
				if v, ok := s.Tasks[TaskKey{node.ID, Task{nn, r.K - 1, r.M}}]; ok {
					bal.Sub(bal, v)
				}
			}
			want := rat.Zero()
			if owed(node.ID, r) {
				want = s.TP
			}
			if !rat.Eq(bal, want) {
				return fmt.Errorf("%s: balance at %s for %s is %s, want %s",
					kind, node.Name, r, bal.RatString(), want.RatString())
			}
		}
	}
	return nil
}

// format renders the throughput, transfers and tasks with their rates,
// like the paper's Figure 6(b)/10.
func (s *Rates) format(kind string, p *graph.Platform) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s throughput TP = %s (period %s)\n", kind, s.TP.RatString(), s.Period().String())
	var lines []string
	for k, r := range s.Sends {
		lines = append(lines, fmt.Sprintf("  send(%s->%s, %s) = %s",
			p.Node(k.From).Name, p.Node(k.To).Name, k.R, r.RatString()))
	}
	for k, r := range s.Tasks {
		lines = append(lines, fmt.Sprintf("  cons(%s, %s) = %s",
			p.Node(k.Node).Name, k.T, r.RatString()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
