// Package reduce implements the reduce family of the paper: the Series of
// Reduces of Section 4 and the parallel prefix its conclusion (Section 6)
// proposes. Participants P_0 … P_N each hold a value v_i per operation.
// A reduce computes v = v_0 ⊕ … ⊕ v_N (⊕ associative, non-commutative)
// and stores it on a target processor; a prefix gives each participant
// P_i the prefix v[0,i] = v_0 ⊕ … ⊕ v_i of its own rank. Either
// maximizes the steady-state throughput TP of pipelined operations.
//
// The package provides:
//
//   - the linear program SSR(G) (equations (7)–(11)) as an LP fragment
//     that internal/composite assembles and solves: variables are
//     fractional per-edge transfer rates of partial results v[k,m] and
//     fractional per-node rates of reduction tasks T_{k,l,m} (which merge
//     v[k,l] ⊕ v[l+1,m] → v[k,m]), under one-port, compute-occupation and
//     conservation constraints;
//   - the prefix program, which is SSR(G) with other deliveries: the same
//     variables and constraints, but the conservation law at P_i for its
//     own prefix v[0,i] is charged an extra TP of deliveries — the prefix
//     may still be forwarded or consumed to build longer ranges for higher
//     ranks, so rank sinks are quota deliveries rather than absorbing
//     sinks;
//   - the reduction-tree extraction algorithm of Figure 8 (EXTRACT_TREES /
//     FIND_TREE), which certifies the integer periodic solution as a
//     polynomial-size weighted family of reduction trees (Theorem 1);
//   - the fixed-period approximation of Section 4.6 (Proposition 4).
//
// Both programs share one operand (Family), one variable set and
// conservation loop, one rate type (Rates) and one balance check; they
// differ only in the transfers they drop and in the cells that are
// skipped or owe deliveries.
package reduce

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
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

// Ranges enumerates all partial-result types v[k,m] over participants
// P_0 … P_n, 0 ≤ k ≤ m ≤ n, in (k, m) order.
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

// Family is the operand every reduce-family problem embeds: the platform,
// the participants and the size and task-time functions.
type Family struct {
	Platform *graph.Platform
	// Order lists the participants in reduction order: Order[i] holds v_i.
	Order []graph.NodeID
	// SizeOf gives the message size of each partial result; the
	// constructors default to unit size for all (the paper's Figure 9
	// experiment uses uniform size 10).
	SizeOf func(Range) rat.Rat
	// TaskTime gives w(P_i, T): the time for a node to run one task; the
	// constructors default to SizeOf(result) / node speed, the convention
	// of the paper's experiments.
	TaskTime func(graph.NodeID, Task) rat.Rat
}

// init validates the participants of a kind problem — at least two, no
// router, no duplicate — and binds the family to p with the default size
// and task-time functions. The default task time reads f.SizeOf when it
// is called, so replacing SizeOf after construction scales it too.
func (f *Family) init(kind string, p *graph.Platform, order []graph.NodeID) error {
	if len(order) < 2 {
		return fmt.Errorf("%s: need at least two participants (a single value needs no reduction)", kind)
	}
	seen := make(map[graph.NodeID]bool)
	for _, id := range order {
		if p.Node(id).Router {
			return fmt.Errorf("%s: participant %s is a router", kind, p.Node(id).Name)
		}
		if seen[id] {
			return fmt.Errorf("%s: duplicate participant %s", kind, p.Node(id).Name)
		}
		seen[id] = true
	}
	f.Platform = p
	f.Order = append([]graph.NodeID(nil), order...)
	f.SizeOf = func(Range) rat.Rat { return rat.One() }
	f.TaskTime = func(n graph.NodeID, t Task) rat.Rat {
		return rat.Div(f.SizeOf(t.Result()), p.Node(n).Speed)
	}
	return nil
}

// N returns the largest participant index (participants are P_0 … P_N).
func (f *Family) N() int { return len(f.Order) - 1 }

// Host returns the platform the problem is bound to.
func (f *Family) Host() *graph.Platform { return f.Platform }

// Problem is a Series of Reduces instance.
type Problem struct {
	Family
	// Target stores the final result v[0,N].
	Target graph.NodeID
	// ComputeAt, when non-nil, restricts reduction tasks to the listed
	// nodes (each must be a non-router with positive speed; NewFragment
	// rejects any other entry). Nil allows every capable node — the
	// paper's model. Restricting to just the target ablates the paper's
	// interleaving of computation with communication (gather-then-reduce).
	ComputeAt []graph.NodeID

	// kind names the collective: "reduce", or "gather" for a problem
	// built by NewGatherProblem.
	kind string
}

// NewProblem validates and returns a reduce problem with default size and
// task-time functions.
func NewProblem(p *graph.Platform, order []graph.NodeID, target graph.NodeID) (*Problem, error) {
	return newProblem("reduce", p, order, target)
}

// newProblem is NewProblem for a problem of the given kind, "reduce" or
// "gather", whose errors and output carry that name.
func newProblem(kind string, p *graph.Platform, order []graph.NodeID, target graph.NodeID) (*Problem, error) {
	pr := &Problem{Target: target, kind: kind}
	if err := pr.init(kind, p, order); err != nil {
		return nil, err
	}
	if p.Node(target).Router {
		return nil, fmt.Errorf("%s: target %s is a router", kind, p.Node(target).Name)
	}
	for _, id := range order {
		if id != target && !p.CanReach(id, target) {
			return nil, fmt.Errorf("%s: participant %s cannot reach target %s",
				kind, p.Node(id).Name, p.Node(target).Name)
		}
	}
	return pr, nil
}

// Kind names the collective: "reduce", or "gather" for a problem built
// by NewGatherProblem.
func (pr *Problem) Kind() string { return pr.kind }

// delivers reports whether (node, r) is the final result v[0,N] at the
// target: the one cell a reduce delivers, which it never forwards.
func (pr *Problem) delivers(node graph.NodeID, r Range) bool {
	return node == pr.Target && r == Range{0, pr.N()}
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
	vars
	Problem *Problem
}

// NewFragment declares the transfer variables of the problem into m with
// light pruning — the final result never leaves the target, a leaf v[i,i]
// never flows into its owner — registering their busy time with occ. label
// prefixes variable names so several fragments can share one model. ctx
// carries the solve trace, if any: assembly opens an "assemble" span. It
// rejects a ComputeAt entry that is not a node of the platform, or is a
// router or a zero-speed node.
func (pr *Problem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	for _, id := range pr.ComputeAt {
		if int(id) < 0 || int(id) >= pr.Platform.NumNodes() {
			return nil, fmt.Errorf("%s: compute node %d is not on the platform", pr.kind, id)
		}
		if n := pr.Platform.Node(id); n.Router || n.Speed.Sign() <= 0 {
			return nil, fmt.Errorf("%s: compute node %s cannot compute (router or zero speed)", pr.kind, n.Name)
		}
	}
	return &Fragment{Problem: pr, vars: declare(ctx, "reduce", &pr.Family, pr.ComputeAt, m, label, occ, pr.delivers)}, nil
}

// AddFlowConstraints adds the conservation law (10) and the throughput
// equation (11), with the delivered rate of final results constrained to
// weight·tp. With weight 1 as the model's only fragment this is the plain
// SSR program; in a shared model, weight scales the member's rate relative
// to the common objective tp.
func (f *Fragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	pr := f.Problem
	f.conserve(m, label, tp, weight, pr.delivers, never)
	// Throughput (11): final results reaching the target by transfer or
	// by local computation — the balance of the one skipped cell, which
	// has no outflow and is consumed by no task.
	final := f.balance(pr.Target, Range{0, pr.N()})
	m.AddConstraint(label+"throughput", final.Minus(weight, tp), lp.Eq, rat.Zero())
}

// Extract reads the fragment's solved rates into a Solution with the
// given throughput.
func (f *Fragment) Extract(sol *lp.Solution, tp rat.Rat) core.Part {
	return &Solution{Problem: f.Problem, Rates: f.rates(sol, tp)}
}

// Solution is a solved Series of Reduces: the optimal throughput and the
// steady-state rates of every transfer and task.
type Solution struct {
	Problem *Problem
	Rates
}

// Demand lists one transfer per edge and partial result, labeled by its
// range and sized by SizeOf, and the compute time of the tasks.
func (s *Solution) Demand() core.Demand { return s.demand(&s.Problem.Family) }

// Verify re-checks every SSR constraint on the solution, independent of
// the LP solver: one-port and compute occupations, the conservation law,
// and the throughput equation (the target's final results balance to TP).
// It returns the first violation.
func (s *Solution) Verify() error {
	return s.verify(s.Problem.kind, &s.Problem.Family, s.Problem.ComputeAt, s.Problem.delivers)
}

// String renders the solution like the paper's Figure 6(b)/10: throughput,
// transfers and tasks with their rates.
func (s *Solution) String() string { return s.format(s.Problem.kind, s.Problem.Platform) }
