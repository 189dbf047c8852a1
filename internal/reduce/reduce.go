// Package reduce implements Section 4 of the paper: the Series of Reduces
// problem. Participants P_0 … P_N each hold a value v_i per operation; the
// goal is to compute v = v_0 ⊕ … ⊕ v_N (⊕ associative, non-commutative)
// and store it on a target processor, maximizing the steady-state
// throughput TP of pipelined operations.
//
// The package provides:
//
//   - the linear program SSR(G) (equations (7)–(11)) as an LP fragment
//     that internal/composite assembles and solves: variables are
//     fractional per-edge transfer rates of partial results v[k,m] and
//     fractional per-node rates of reduction tasks T_{k,l,m} (which merge
//     v[k,l] ⊕ v[l+1,m] → v[k,m]), under one-port, compute-occupation and
//     conservation constraints;
//   - the reduction-tree extraction algorithm of Figure 8 (EXTRACT_TREES /
//     FIND_TREE), which certifies the integer periodic solution as a
//     polynomial-size weighted family of reduction trees (Theorem 1);
//   - the fixed-period approximation of Section 4.6 (Proposition 4).
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

// Range identifies the partial result v[K,M] = v_K ⊕ … ⊕ v_M (logical
// participant indices, 0 ≤ K ≤ M ≤ N).
type Range struct {
	K, M int
}

// String renders the range as the paper writes it, e.g. "v[1,6]".
func (r Range) String() string { return fmt.Sprintf("v[%d,%d]", r.K, r.M) }

// IsLeaf reports whether the range is a single initial value v[i,i].
func (r Range) IsLeaf() bool { return r.K == r.M }

// Len returns the number of initial values covered.
func (r Range) Len() int { return r.M - r.K + 1 }

// Task identifies the reduction task T_{K,L,M}: v[K,L] ⊕ v[L+1,M] → v[K,M]
// (0 ≤ K ≤ L < M ≤ N).
type Task struct {
	K, L, M int
}

// String renders the task as the paper writes it, e.g. "T[0,0,2]".
func (t Task) String() string { return fmt.Sprintf("T[%d,%d,%d]", t.K, t.L, t.M) }

// Left returns the task's left input range v[K,L].
func (t Task) Left() Range { return Range{t.K, t.L} }

// Right returns the task's right input range v[L+1,M].
func (t Task) Right() Range { return Range{t.L + 1, t.M} }

// Result returns the task's output range v[K,M].
func (t Task) Result() Range { return Range{t.K, t.M} }

// Problem is a Series of Reduces instance.
type Problem struct {
	Platform *graph.Platform
	// Order lists the participants in reduction order: Order[i] holds v_i.
	Order []graph.NodeID
	// Target stores the final result v[0,N].
	Target graph.NodeID
	// SizeOf gives the message size of each partial result; nil means
	// unit size for all (the paper's Figure 9 experiment uses uniform
	// size 10).
	SizeOf func(Range) rat.Rat
	// TaskTime gives w(P_i, T): the time for a node to run one task; nil
	// means SizeOf(result) / node speed, the convention of the paper's
	// experiments.
	TaskTime func(graph.NodeID, Task) rat.Rat
	// ComputeAt, when non-nil, restricts reduction tasks to the listed
	// nodes (each must be a non-router with positive speed). Nil allows
	// every capable node — the paper's model. Restricting to just the
	// target ablates the paper's interleaving of computation with
	// communication (gather-then-reduce).
	ComputeAt []graph.NodeID
}

// NewProblem validates and returns a reduce problem with default size and
// task-time functions.
func NewProblem(p *graph.Platform, order []graph.NodeID, target graph.NodeID) (*Problem, error) {
	if len(order) < 2 {
		return nil, fmt.Errorf("reduce: need at least two participants (a single value needs no reduction)")
	}
	seen := make(map[graph.NodeID]bool)
	for _, id := range order {
		if p.Node(id).Router {
			return nil, fmt.Errorf("reduce: participant %s is a router", p.Node(id).Name)
		}
		if seen[id] {
			return nil, fmt.Errorf("reduce: duplicate participant %s", p.Node(id).Name)
		}
		seen[id] = true
	}
	if p.Node(target).Router {
		return nil, fmt.Errorf("reduce: target %s is a router", p.Node(target).Name)
	}
	for _, id := range order {
		if id != target && !p.CanReach(id, target) {
			return nil, fmt.Errorf("reduce: participant %s cannot reach target %s",
				p.Node(id).Name, p.Node(target).Name)
		}
	}
	pr := &Problem{
		Platform: p,
		Order:    append([]graph.NodeID(nil), order...),
		Target:   target,
	}
	pr.SizeOf = func(Range) rat.Rat { return rat.One() }
	pr.TaskTime = func(n graph.NodeID, t Task) rat.Rat {
		return rat.Div(pr.SizeOf(t.Result()), p.Node(n).Speed)
	}
	return pr, nil
}

// N returns the largest participant index (participants are P_0 … P_N).
func (pr *Problem) N() int { return len(pr.Order) - 1 }

// Kind names the collective family; a gather is a reduce.
func (pr *Problem) Kind() string { return "reduce" }

// Host returns the platform the problem is bound to.
func (pr *Problem) Host() *graph.Platform { return pr.Platform }

// Ranges enumerates all partial-result types v[k,m] over participants
// P_0 … P_n, 0 ≤ k ≤ m ≤ n, in (k, m) order. Reduce and prefix share the
// enumeration, so their variables come out in the same order.
func Ranges(n int) []Range {
	var out []Range
	for k := 0; k <= n; k++ {
		for m := k; m <= n; m++ {
			out = append(out, Range{k, m})
		}
	}
	return out
}

// Tasks enumerates all task types T_{k,l,m} over participants P_0 … P_n,
// 0 ≤ k ≤ l < m ≤ n, in (k, l, m) order.
func Tasks(n int) []Task {
	var out []Task
	for k := 0; k <= n; k++ {
		for l := k; l < n; l++ {
			for m := l + 1; m <= n; m++ {
				out = append(out, Task{k, l, m})
			}
		}
	}
	return out
}

// owner returns the participant index of node id, or -1.
func (pr *Problem) owner(id graph.NodeID) int {
	for i, n := range pr.Order {
		if n == id {
			return i
		}
	}
	return -1
}

// ComputeNodes returns the nodes of p allowed to run reduction tasks, in
// node order: every non-router node with positive speed, intersected with
// only when it is non-nil (a nil restriction allows every capable node).
func ComputeNodes(p *graph.Platform, only []graph.NodeID) []graph.NodeID {
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

// SendKey identifies a transfer variable send(From→To, v[K,M]).
type SendKey struct {
	From, To graph.NodeID
	R        Range
}

// TaskKey identifies a computation variable cons(Node, T_{K,L,M}).
type TaskKey struct {
	Node graph.NodeID
	T    Task
}

// Solution is a solved Series of Reduces: the optimal throughput and the
// steady-state rates of every transfer and task.
type Solution struct {
	Problem *Problem
	TP      rat.Rat
	Sends   map[SendKey]rat.Rat
	Tasks   map[TaskKey]rat.Rat
}

// Fragment is one reduce instance's share of a linear program: its
// transfer and task variables, with occupancy registered on (possibly
// shared) port and compute builders. A model holding this one fragment is
// exactly the plain SSR(G) program; several fragments on one model
// superpose concurrent reduce-family collectives on the same platform
// capacity — the construction behind reduce-scatter. Either way
// internal/composite assembles it in the three phases of core.Fragment
// and solves the model.
type Fragment struct {
	Problem *Problem
	Sends   map[SendKey]lp.Var
	Tasks   map[TaskKey]lp.Var
}

// NewFragment declares the transfer variables of the problem into m with
// light pruning — the final result never leaves the target, a leaf v[i,i]
// never flows into its owner — registering their busy time with occ. label
// prefixes variable names so several fragments can share one model. ctx
// carries the solve trace, if any: assembly opens an "assemble" span.
func (pr *Problem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	_, asmSpan := obs.StartSpan(ctx, "assemble")
	asmSpan.SetAttr("kind", "reduce")
	asmSpan.SetAttr("label", label)
	asmSpan.SetAttr("participants", len(pr.Order))
	final := Range{0, pr.N()}
	f := &Fragment{
		Problem: pr,
		Sends:   make(map[SendKey]lp.Var),
		Tasks:   make(map[TaskKey]lp.Var),
	}
	for _, e := range pr.Platform.Edges() {
		for _, r := range Ranges(pr.N()) {
			if r == final && e.From == pr.Target {
				continue
			}
			if r.IsLeaf() && e.To == pr.Order[r.K] {
				continue
			}
			k := SendKey{e.From, e.To, r}
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

// AddComputeVars declares the computation variables (equations (7) and
// (9), with α substituted out), registering each task's time with comp.
func (f *Fragment) AddComputeVars(m *lp.Model, label string, comp *core.ComputeBuilder) {
	pr := f.Problem
	for _, node := range ComputeNodes(pr.Platform, pr.ComputeAt) {
		for _, t := range Tasks(pr.N()) {
			k := TaskKey{node, t}
			v := m.Var(fmt.Sprintf("%scons(%s,%s)", label, pr.Platform.Node(node).Name, t))
			f.Tasks[k] = v
			comp.Add(node, v, pr.TaskTime(node, t))
		}
	}
}

// AddFlowConstraints adds the conservation law (10) and the throughput
// equation (11), with the delivered rate of final results constrained to
// weight·tp. With weight 1 as the model's only fragment this is the plain
// SSR program; in a shared model, weight scales the member's rate relative
// to the common objective tp.
func (f *Fragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	pr := f.Problem
	n := pr.N()
	final := Range{0, n}

	// Conservation law (10) at every node for every range, except the
	// unlimited leaf at its owner and the final result at the target.
	for _, node := range pr.Platform.Nodes() {
		for _, r := range Ranges(pr.N()) {
			if r.IsLeaf() && pr.Order[r.K] == node.ID {
				continue
			}
			if r == final && node.ID == pr.Target {
				continue
			}
			expr := lp.NewExpr()
			size := 0
			// Inflow.
			for _, e := range pr.Platform.InEdges(node.ID) {
				if v, ok := f.Sends[SendKey{e.From, e.To, r}]; ok {
					expr = expr.Plus1(v)
					size++
				}
			}
			// Production: tasks T_{k,l,m} with result [k,m] = r.
			for l := r.K; l < r.M; l++ {
				if v, ok := f.Tasks[TaskKey{node.ID, Task{r.K, l, r.M}}]; ok {
					expr = expr.Plus1(v)
					size++
				}
			}
			// Outflow.
			for _, e := range pr.Platform.OutEdges(node.ID) {
				if v, ok := f.Sends[SendKey{e.From, e.To, r}]; ok {
					expr = expr.Minus(rat.One(), v)
					size++
				}
			}
			// Consumption: as left operand T_{k,m,n} (n > m) or as right
			// operand T_{n,k-1,m} (n < k).
			for nn := r.M + 1; nn <= n; nn++ {
				if v, ok := f.Tasks[TaskKey{node.ID, Task{r.K, r.M, nn}}]; ok {
					expr = expr.Minus(rat.One(), v)
					size++
				}
			}
			for nn := 0; nn < r.K; nn++ {
				if v, ok := f.Tasks[TaskKey{node.ID, Task{nn, r.K - 1, r.M}}]; ok {
					expr = expr.Minus(rat.One(), v)
					size++
				}
			}
			if size == 0 {
				continue
			}
			m.AddConstraint(fmt.Sprintf("%sconserve(%s,%s)", label, node.Name, r), expr, lp.Eq, rat.Zero())
		}
	}

	// Throughput (11): final results reaching the target by transfer or
	// by local computation.
	tpExpr := lp.NewExpr().Minus(weight, tp)
	for _, e := range pr.Platform.InEdges(pr.Target) {
		if v, ok := f.Sends[SendKey{e.From, e.To, final}]; ok {
			tpExpr = tpExpr.Plus1(v)
		}
	}
	for l := 0; l < n; l++ {
		if v, ok := f.Tasks[TaskKey{pr.Target, Task{0, l, n}}]; ok {
			tpExpr = tpExpr.Plus1(v)
		}
	}
	m.AddConstraint(label+"throughput", tpExpr, lp.Eq, rat.Zero())
}

// Extract reads the fragment's solved rates into a Solution with the
// given throughput, canceling zero-net send circulations.
func (f *Fragment) Extract(sol *lp.Solution, tp rat.Rat) core.Part {
	out := &Solution{
		Problem: f.Problem,
		TP:      rat.Copy(tp),
		Sends:   make(map[SendKey]rat.Rat),
		Tasks:   make(map[TaskKey]rat.Rat),
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
	out.cancelCycles()
	return out
}

// cancelCycles removes zero-net send circulations per range (the simplex
// may return them at no objective cost; the tree extractor requires
// cycle-free transfer support to terminate).
func (s *Solution) cancelCycles() {
	f := core.NewFlow[Range](s.Problem.Platform)
	for k, r := range s.Sends {
		f.SetSend(k.From, k.To, k.R, r)
	}
	core.CancelCycles(f)
	s.Sends = make(map[SendKey]rat.Rat)
	for e, types := range f.Sends {
		for rg, r := range types {
			s.Sends[SendKey{e.From, e.To, rg}] = r
		}
	}
}

// Throughput returns TP: reduce operations completed per time unit.
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

// Demand lists one transfer per edge and partial result, labeled by its
// range and sized by SizeOf, and the compute time of the tasks.
func (s *Solution) Demand() core.Demand {
	return DemandOf(s.Sends, s.Tasks, s.Problem.SizeOf, s.Problem.TaskTime)
}

// DemandOf is the demand of a reduce-family solution with the given rates,
// size and task-time functions: reduce and prefix share it.
func DemandOf(sends map[SendKey]rat.Rat, tasks map[TaskKey]rat.Rat, sizeOf func(Range) rat.Rat, taskTime func(graph.NodeID, Task) rat.Rat) core.Demand {
	d := core.Demand{ComputeTime: computeTime(tasks, taskTime)}
	for k, r := range sends {
		d.Transfers = append(d.Transfers, core.FlowTransfer{From: k.From, To: k.To, Label: k.R.String(), Size: sizeOf(k.R), Rate: rat.Copy(r)}) //sslint:allow order-insensitive: a demand's transfers are unordered by contract
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

// VerifyCompute checks the compute occupation of a reduce-family
// solution: every task runs on one of ComputeNodes(p, only) — checked
// first, since a router or a zero-speed node has no task time — and no
// node computes for more than one time unit per time unit.
func VerifyCompute(p *graph.Platform, only []graph.NodeID, tasks map[TaskKey]rat.Rat, taskTime func(graph.NodeID, Task) rat.Rat) error {
	allowedCompute := make(map[graph.NodeID]bool)
	for _, id := range ComputeNodes(p, only) {
		allowedCompute[id] = true
	}
	for k := range tasks {
		if !allowedCompute[k.Node] {
			return fmt.Errorf("task on non-computing node %s", p.Node(k.Node).Name)
		}
	}
	for id, a := range computeTime(tasks, taskTime) {
		if a.Cmp(rat.One()) > 0 {
			return fmt.Errorf("node %s computes for %s > 1 per time unit", p.Node(id).Name, a.RatString())
		}
	}
	return nil
}

// Verify re-checks every SSR constraint on the solution, independent of
// the LP solver: one-port and compute occupations, the conservation law,
// and the throughput equation. It returns the first violation.
func (s *Solution) Verify() error {
	pr := s.Problem
	n := pr.N()
	final := Range{0, n}

	// One-port via a typed flow.
	f := core.NewFlow[Range](pr.Platform)
	for k, r := range s.Sends {
		f.SetSend(k.From, k.To, k.R, r)
	}
	if err := f.VerifyOnePort(pr.SizeOf); err != nil {
		return fmt.Errorf("reduce: %w", err)
	}

	if err := VerifyCompute(pr.Platform, pr.ComputeAt, s.Tasks, pr.TaskTime); err != nil {
		return fmt.Errorf("reduce: %w", err)
	}

	// Conservation.
	for _, node := range pr.Platform.Nodes() {
		for _, r := range Ranges(pr.N()) {
			if r.IsLeaf() && pr.Order[r.K] == node.ID {
				continue
			}
			if r == final && node.ID == pr.Target {
				continue
			}
			bal := rat.Zero()
			in, out := f.InflowOutflow(node.ID, r)
			bal.Add(bal, in)
			bal.Sub(bal, out)
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
			if bal.Sign() != 0 {
				return fmt.Errorf("reduce: conservation violated at %s for %s: net %s",
					node.Name, r, bal.RatString())
			}
		}
	}

	// Throughput equation.
	got := rat.Zero()
	in, _ := f.InflowOutflow(pr.Target, final)
	got.Add(got, in)
	for l := 0; l < n; l++ {
		if v, ok := s.Tasks[TaskKey{pr.Target, Task{0, l, n}}]; ok {
			got.Add(got, v)
		}
	}
	if !rat.Eq(got, s.TP) {
		return fmt.Errorf("reduce: target receives %s final results, want TP=%s",
			got.RatString(), s.TP.RatString())
	}
	return nil
}

// String renders the solution like the paper's Figure 6(b)/10: throughput,
// transfers and tasks with their rates.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reduce throughput TP = %s (period %s)\n", s.TP.RatString(), s.Period().String())
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
