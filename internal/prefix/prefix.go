// Package prefix implements the extension suggested in the paper's
// conclusion (Section 6): steady-state parallel prefix computation. Each
// participant P_i must obtain the prefix v[0,i] = v_0 ⊕ … ⊕ v_i of its own
// rank, for a pipelined series of operations, maximizing the common
// throughput TP.
//
// The linear program generalizes SSR(G): the same transfer and task
// variables over partial results v[k,m], the same one-port and compute
// constraints, but the conservation law at P_i for its own prefix v[0,i]
// is charged an extra TP of deliveries — the prefix may still be forwarded
// or consumed to build longer ranges for higher ranks, so rank sinks are
// quota deliveries rather than absorbing sinks. Fragment declares that
// program; internal/composite assembles and solves it.
package prefix

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
	"repro/internal/reduce"
)

// Problem is a Series of Parallel Prefixes instance. It reuses the reduce
// package's Range/Task vocabulary; participant P_i = Order[i] both holds
// v_i and must receive v[0,i].
type Problem struct {
	Platform *graph.Platform
	Order    []graph.NodeID
	SizeOf   func(reduce.Range) rat.Rat
	TaskTime func(graph.NodeID, reduce.Task) rat.Rat
}

// NewProblem validates and returns a prefix problem with default size and
// task-time functions.
func NewProblem(p *graph.Platform, order []graph.NodeID) (*Problem, error) {
	if len(order) < 2 {
		return nil, fmt.Errorf("prefix: need at least two participants")
	}
	seen := make(map[graph.NodeID]bool)
	for _, id := range order {
		if p.Node(id).Router {
			return nil, fmt.Errorf("prefix: participant %s is a router", p.Node(id).Name)
		}
		if seen[id] {
			return nil, fmt.Errorf("prefix: duplicate participant %s", p.Node(id).Name)
		}
		seen[id] = true
	}
	// Every rank needs data from all lower ranks: P_j must reach P_i for
	// j ≤ i, which the pairwise check covers.
	for i, a := range order {
		for j, b := range order {
			if j < i && !p.CanReach(b, a) {
				return nil, fmt.Errorf("prefix: %s cannot reach %s (rank %d needs rank %d)",
					p.Node(b).Name, p.Node(a).Name, i, j)
			}
		}
	}
	pr := &Problem{Platform: p, Order: append([]graph.NodeID(nil), order...)}
	pr.SizeOf = func(reduce.Range) rat.Rat { return rat.One() }
	pr.TaskTime = func(n graph.NodeID, t reduce.Task) rat.Rat {
		return rat.Div(pr.SizeOf(t.Result()), p.Node(n).Speed)
	}
	return pr, nil
}

// N returns the largest participant index.
func (pr *Problem) N() int { return len(pr.Order) - 1 }

// Kind names the collective family.
func (pr *Problem) Kind() string { return "prefix" }

// Host returns the platform the problem is bound to.
func (pr *Problem) Host() *graph.Platform { return pr.Platform }

// Solution is a solved prefix series.
type Solution struct {
	Problem *Problem
	TP      rat.Rat
	Sends   map[reduce.SendKey]rat.Rat
	Tasks   map[reduce.TaskKey]rat.Rat
}

// Fragment is one prefix instance's share of a linear program, following
// the same three-phase shared assembly as reduce.Fragment: transfer
// variables + port occupancy, task variables + compute occupancy, then
// conservation with per-rank deliveries.
type Fragment struct {
	Problem *Problem
	Sends   map[reduce.SendKey]lp.Var
	Tasks   map[reduce.TaskKey]lp.Var
}

// NewFragment declares the transfer variables into m (a leaf never flows
// into its owner), registering their busy time with occ. label prefixes
// variable names so several fragments can share one model. ctx carries
// the solve trace, if any: assembly opens an "assemble" span.
func (pr *Problem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	_, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", "prefix")
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("participants", len(pr.Order))
	f := &Fragment{
		Problem: pr,
		Sends:   make(map[reduce.SendKey]lp.Var),
		Tasks:   make(map[reduce.TaskKey]lp.Var),
	}
	for _, e := range pr.Platform.Edges() {
		for _, r := range reduce.Ranges(pr.N()) {
			if r.IsLeaf() && e.To == pr.Order[r.K] {
				continue // a leaf never flows into its owner
			}
			k := reduce.SendKey{From: e.From, To: e.To, R: r}
			v := m.Var(fmt.Sprintf("%ssend(%s->%s,%s)", label,
				pr.Platform.Node(e.From).Name, pr.Platform.Node(e.To).Name, r))
			f.Sends[k] = v
			occ.Add(e.From, e.To, v, rat.Mul(pr.SizeOf(r), e.Cost))
		}
	}
	asmSpan.SetAttr("vars", len(f.Sends))
	asmSpan.End()
	return f, nil
}

// AddComputeVars declares the computation variables, registering each
// task's time with comp.
func (f *Fragment) AddComputeVars(m *lp.Model, label string, comp *core.ComputeBuilder) {
	pr := f.Problem
	for _, node := range reduce.ComputeNodes(pr.Platform, nil) {
		for _, t := range reduce.Tasks(pr.N()) {
			k := reduce.TaskKey{Node: node, T: t}
			v := m.Var(fmt.Sprintf("%scons(%s,%s)", label, pr.Platform.Node(node).Name, t))
			f.Tasks[k] = v
			comp.Add(node, v, pr.TaskTime(node, t))
		}
	}
}

// AddFlowConstraints adds conservation with per-rank prefix deliveries:
// at node P_i for range [0,i], the balance owes an extra weight·tp (the
// delivered prefixes).
func (f *Fragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	pr := f.Problem
	n := pr.N()
	for _, node := range pr.Platform.Nodes() {
		for _, r := range reduce.Ranges(pr.N()) {
			if r.IsLeaf() && pr.Order[r.K] == node.ID {
				continue // unlimited local supply of v[i,i]
			}
			expr := lp.NewExpr()
			terms := 0
			for _, e := range pr.Platform.InEdges(node.ID) {
				if v, ok := f.Sends[reduce.SendKey{From: e.From, To: e.To, R: r}]; ok {
					expr = expr.Plus1(v)
					terms++
				}
			}
			for l := r.K; l < r.M; l++ {
				if v, ok := f.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: r.K, L: l, M: r.M}}]; ok {
					expr = expr.Plus1(v)
					terms++
				}
			}
			for _, e := range pr.Platform.OutEdges(node.ID) {
				if v, ok := f.Sends[reduce.SendKey{From: e.From, To: e.To, R: r}]; ok {
					expr = expr.Minus(rat.One(), v)
					terms++
				}
			}
			for nn := r.M + 1; nn <= n; nn++ {
				if v, ok := f.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: r.K, L: r.M, M: nn}}]; ok {
					expr = expr.Minus(rat.One(), v)
					terms++
				}
			}
			for nn := 0; nn < r.K; nn++ {
				if v, ok := f.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: nn, L: r.K - 1, M: r.M}}]; ok {
					expr = expr.Minus(rat.One(), v)
					terms++
				}
			}
			delivered := r.K == 0 && pr.Order[r.M] == node.ID
			if delivered {
				expr = expr.Minus(weight, tp)
				terms++
			}
			if terms == 0 {
				continue
			}
			m.AddConstraint(fmt.Sprintf("%sconserve(%s,%s)", label, node.Name, r), expr, lp.Eq, rat.Zero())
		}
	}
}

// Extract reads the fragment's solved rates into a Solution with the
// given throughput.
func (f *Fragment) Extract(sol *lp.Solution, tp rat.Rat) core.Part {
	out := &Solution{
		Problem: f.Problem,
		TP:      rat.Copy(tp),
		Sends:   make(map[reduce.SendKey]rat.Rat),
		Tasks:   make(map[reduce.TaskKey]rat.Rat),
	}
	for k, v := range f.Sends {
		if val := sol.Value(v); val.Sign() > 0 {
			out.Sends[k] = val
		}
	}
	for k, v := range f.Tasks {
		if val := sol.Value(v); val.Sign() > 0 {
			out.Tasks[k] = val
		}
	}
	return out
}

// Throughput returns TP: prefix operations per time unit.
func (s *Solution) Throughput() rat.Rat { return rat.Copy(s.TP) }

// AllRates returns every rate in the solution plus TP (for the period
// computation).
func (s *Solution) AllRates() []rat.Rat {
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
func (s *Solution) Period() *big.Int { return rat.DenominatorLCM(s.AllRates()...) }

// Demand lists the transfers of partial results and the compute time of
// the tasks, as a reduce does.
func (s *Solution) Demand() core.Demand {
	return reduce.DemandOf(s.Sends, s.Tasks, s.Problem.SizeOf, s.Problem.TaskTime)
}

// Verify re-checks one-port, compute occupation and the per-rank
// conservation/delivery balance, independent of the LP solver.
func (s *Solution) Verify() error {
	pr := s.Problem
	n := pr.N()

	f := core.NewFlow[reduce.Range](pr.Platform)
	for k, r := range s.Sends {
		f.SetSend(k.From, k.To, k.R, r)
	}
	if err := f.VerifyOnePort(pr.SizeOf); err != nil {
		return fmt.Errorf("prefix: %w", err)
	}

	if err := reduce.VerifyCompute(pr.Platform, nil, s.Tasks, pr.TaskTime); err != nil {
		return fmt.Errorf("prefix: %w", err)
	}

	for _, node := range pr.Platform.Nodes() {
		for _, r := range reduce.Ranges(pr.N()) {
			if r.IsLeaf() && pr.Order[r.K] == node.ID {
				continue
			}
			bal := rat.Zero()
			in, out := f.InflowOutflow(node.ID, r)
			bal.Add(bal, in)
			bal.Sub(bal, out)
			for l := r.K; l < r.M; l++ {
				if v, ok := s.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: r.K, L: l, M: r.M}}]; ok {
					bal.Add(bal, v)
				}
			}
			for nn := r.M + 1; nn <= n; nn++ {
				if v, ok := s.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: r.K, L: r.M, M: nn}}]; ok {
					bal.Sub(bal, v)
				}
			}
			for nn := 0; nn < r.K; nn++ {
				if v, ok := s.Tasks[reduce.TaskKey{Node: node.ID, T: reduce.Task{K: nn, L: r.K - 1, M: r.M}}]; ok {
					bal.Sub(bal, v)
				}
			}
			want := rat.Zero()
			if r.K == 0 && pr.Order[r.M] == node.ID {
				want = rat.Copy(s.TP)
			}
			if !rat.Eq(bal, want) {
				return fmt.Errorf("prefix: balance at %s for %s is %s, want %s",
					node.Name, r, bal.RatString(), want.RatString())
			}
		}
	}
	return nil
}

// String renders throughput, transfers and tasks.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefix throughput TP = %s (period %s)\n", s.TP.RatString(), s.Period().String())
	var lines []string
	for k, r := range s.Sends {
		lines = append(lines, fmt.Sprintf("  send(%s->%s, %s) = %s",
			s.Problem.Platform.Node(k.From).Name, s.Problem.Platform.Node(k.To).Name, k.R, r.RatString()))
	}
	for k, r := range s.Tasks {
		lines = append(lines, fmt.Sprintf("  cons(%s, %s) = %s",
			s.Problem.Platform.Node(k.Node).Name, k.T, r.RatString()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
