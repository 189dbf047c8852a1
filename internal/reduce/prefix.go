package reduce

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rat"
)

// PrefixProblem is a Series of Parallel Prefixes instance (Section 6):
// participant P_i = Order[i] both holds v_i and must receive v[0,i].
type PrefixProblem struct {
	Family
}

// NewPrefixProblem validates and returns a prefix problem with default
// size and task-time functions.
func NewPrefixProblem(p *graph.Platform, order []graph.NodeID) (*PrefixProblem, error) {
	pr := &PrefixProblem{}
	if err := pr.init("prefix", p, order); err != nil {
		return nil, err
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
	return pr, nil
}

// Kind names the collective family.
func (pr *PrefixProblem) Kind() string { return "prefix" }

// delivers reports whether (node, r) is a rank's own prefix, v[0,i] at
// P_i: a quota the node absorbs at rate TP while it may still forward or
// extend the prefix for higher ranks.
func (pr *PrefixProblem) delivers(node graph.NodeID, r Range) bool {
	return r.K == 0 && pr.Order[r.M] == node
}

// NewFragment declares the transfer variables into m (a leaf never flows
// into its owner), registering their busy time with occ. label prefixes
// variable names so several fragments can share one model. ctx carries
// the solve trace, if any: assembly opens an "assemble" span.
func (pr *PrefixProblem) NewFragment(ctx context.Context, m *lp.Model, label string, occ *core.OccupancyBuilder) (core.Fragment, error) {
	return &prefixFragment{Problem: pr, vars: declare(ctx, "prefix", &pr.Family, nil, m, label, occ, never)}, nil
}

// prefixFragment is one prefix instance's share of a linear program: the
// reduce variable set with per-rank deliveries.
type prefixFragment struct {
	vars
	Problem *PrefixProblem
}

// AddFlowConstraints adds conservation with per-rank prefix deliveries:
// at node P_i for range [0,i], the balance owes an extra weight·tp (the
// delivered prefixes).
func (f *prefixFragment) AddFlowConstraints(m *lp.Model, label string, tp lp.Var, weight rat.Rat) {
	f.conserve(m, label, tp, weight, never, f.Problem.delivers)
}

// Extract reads the fragment's solved rates into a PrefixSolution with
// the given throughput. Unlike a reduce it keeps send circulations:
// canceling them would change the rates wherever the simplex returns one.
func (f *prefixFragment) Extract(sol *lp.Solution, tp rat.Rat) core.Part {
	return &PrefixSolution{Problem: f.Problem, Rates: f.rates(sol, tp)}
}

// PrefixSolution is a solved prefix series.
type PrefixSolution struct {
	Problem *PrefixProblem
	Rates
}

// Demand lists the transfers of partial results and the compute time of
// the tasks, as a reduce does.
func (s *PrefixSolution) Demand() core.Demand { return s.demand(&s.Problem.Family) }

// Verify re-checks one-port, compute occupation and the per-rank
// conservation/delivery balance, independent of the LP solver.
func (s *PrefixSolution) Verify() error {
	return s.verify("prefix", &s.Problem.Family, nil, s.Problem.delivers)
}

// String renders throughput, transfers and tasks.
func (s *PrefixSolution) String() string { return s.format("prefix", s.Problem.Platform) }
