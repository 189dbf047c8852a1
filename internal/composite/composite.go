// Package composite implements concurrent steady-state collectives: the
// superposition of several collective operations on one heterogeneous
// platform, solved as a single linear program with shared capacity rows.
// It is also the repository's one LP driver: a plain solve of one
// collective is the single-member composite.
//
// The paper expresses every collective (scatter, broadcast, gossip,
// reduce, gather, prefix) as the same kind of steady-state LP over one
// platform graph, so running several of them concurrently is just the
// union of their programs under shared per-node one-port send/receive
// constraints — and, for reduce-family members, shared per-node compute
// constraints. The model maximizes a common base throughput TP; member i
// runs at Weight_i · TP, so equal weights yield the max-min fair common
// rate and unequal weights trade members off proportionally.
//
// Two collectives of the public API are pure instances of this
// construction:
//
//   - Reduce-scatter — participant i ends up with segment i reduced over
//     all ranks — is N concurrent reduces over the same participant
//     order, reduce i delivering to participant i, all with weight one.
//   - Allreduce — every participant ends up with the full reduction —
//     composes that reduce-scatter phase with an allgather: a gossip
//     member redistributing each participant's reduced segment to every
//     other rank, at the same weight-one rate.
//
// A member is any problem implementing the core member contract
// (core.Collective): SolveCtx assembles, solves and extracts every member
// through that contract alone, and the solution verifies and schedules
// it the same way, so the package holds no per-kind code and imports no
// kind package. Each member's
// variables keep their own conservation structure (the members exchange
// no data), so the per-member sub-solutions are ordinary
// scatter/broadcast/gossip/reduce/prefix solutions (a MemberSolution's
// Part) and reuse the existing tree-extraction and verification
// machinery. Verify checks each member on its own, then the one capacity
// check (core.VerifyCapacity) on all members' demands together: the
// shared ports and compute are what the superposition adds. The merged
// periodic schedule decomposes the union of all members' transfers (each
// Part's Demand) into one sequence of one-port-safe matching slots over
// the LCM of the member periods; a member's own schedule
// (MemberSolution.Schedule) is the one-member case of the same
// construction, and it is the schedule of every plain scatter, broadcast,
// gossip and prefix solve.
package composite

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
	"repro/internal/schedule"
)

// Member is one collective of a composite: a base-kind problem, and the
// Weight that scales its delivered rate relative to the common base
// throughput (member i delivers Weight_i · TP per time unit).
type Member struct {
	Weight  rat.Rat
	Problem core.Collective
}

// Problem is a set of collectives solved as one steady-state LP on one
// platform with shared one-port and compute capacity.
type Problem struct {
	Platform *graph.Platform
	Members  []Member
}

// NewProblem validates and returns a composite instance. Every member must
// have a problem, a positive weight, and reference the same platform value
// the composite is built on. The composite keeps its own copy of every
// weight.
func NewProblem(p *graph.Platform, members []Member) (*Problem, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("composite: no members")
	}
	own := make([]Member, len(members))
	for i, mem := range members {
		if mem.Problem == nil {
			return nil, fmt.Errorf("composite: member %d has no problem", i)
		}
		if mem.Weight == nil || mem.Weight.Sign() <= 0 {
			return nil, fmt.Errorf("composite: member %d has non-positive weight", i)
		}
		if mem.Problem.Host() != p {
			return nil, fmt.Errorf("composite: member %d is bound to a different platform", i)
		}
		own[i] = Member{Weight: rat.Copy(mem.Weight), Problem: mem.Problem}
	}
	return &Problem{Platform: p, Members: own}, nil
}

// MemberSolution is one member's share of a solved composite: an ordinary
// per-kind solution whose rates satisfy the member's own conservation and
// delivery constraints at Throughput = Weight · TP. The members were
// solved jointly, so the LP counters live once, on Solution.Stats.
type MemberSolution struct {
	Weight     rat.Rat
	Throughput rat.Rat
	// Part is the member's own per-kind solution.
	Part core.Part

	problem core.Collective
}

// Kind names the member's collective family.
func (ms *MemberSolution) Kind() string { return ms.problem.Kind() }

// Schedule builds the member's own periodic schedule: its transfers at its
// own period, decomposed into one-port-safe matching slots — the
// one-member case of Solution.Schedule, and the schedule of a plain
// scatter, broadcast, gossip or prefix solve (a plain reduce or gather
// serializes its certified trees instead).
func (ms *MemberSolution) Schedule() (*schedule.Schedule, error) {
	return schedule.MergeFlows(ms.problem.Host(), ms.Part.Period(), []core.Demand{ms.flows("")})
}

// flows returns the member's demand for a schedule, with labels prefixed
// for the member and the transfers in deterministic order: the matching
// decomposition is order-sensitive, so map-ordered rates would otherwise
// lay out different slots run to run.
func (ms *MemberSolution) flows(label string) core.Demand {
	d := ms.Part.Demand()
	for i := range d.Transfers {
		d.Transfers[i].Label = label + d.Transfers[i].Label
	}
	sort.Slice(d.Transfers, func(i, j int) bool {
		a, b := d.Transfers[i], d.Transfers[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return d
}

// Solution is a solved composite: the common base throughput TP (member i
// runs at Weight_i · TP), the per-member sub-solutions, and the size,
// sparsity and pivot counters of the one LP that produced them.
type Solution struct {
	Problem *Problem
	TP      rat.Rat
	Members []*MemberSolution
	Stats   core.FlowStats
}

// MemberLabel returns member i's namespace, "op<i>:": it prefixes the
// member's LP variable and constraint names, its transfer labels in the
// merged schedule, and its commodities in a merged simulation model.
func MemberLabel(i int) string { return fmt.Sprintf("op%d:", i) }

// SolveCtx builds and solves the shared-capacity LP, honoring context
// cancellation inside the simplex loop. It is the one steady-state LP
// driver: a plain solve of one collective is the single-member case.
// Assembly runs phase by phase — transfer variables, then the shared port
// rows, then task variables, then the shared compute rows, then
// per-member conservation and delivery — so variables and constraints
// come out in a deterministic order whatever the member set.
func (pr *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	m := lp.NewMaximize()
	tp := m.Var("TP")
	m.SetObjective(tp, rat.One())
	occ := core.NewOccupancy(pr.Platform)
	comp := core.NewCompute(pr.Platform)

	frags := make([]core.Fragment, len(pr.Members))
	for i, mem := range pr.Members {
		f, err := mem.Problem.NewFragment(ctx, m, MemberLabel(i), occ)
		if err != nil {
			return nil, fmt.Errorf("composite: member %d: %w", i, err)
		}
		frags[i] = f
	}
	occ.AddConstraints(m)
	for i, f := range frags {
		f.AddComputeVars(m, MemberLabel(i), comp)
	}
	comp.AddConstraints(m)
	for i, f := range frags {
		f.AddFlowConstraints(m, MemberLabel(i), tp, pr.Members[i].Weight)
	}

	sol, err := m.SolveCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("composite: shared LP: %w", err)
	}
	if err := m.Verify(sol.Values()); err != nil {
		return nil, fmt.Errorf("composite: LP solution failed verification: %w", err)
	}

	out := &Solution{
		Problem: pr,
		TP:      rat.Copy(sol.Objective),
		Stats:   core.StatsOf(m, sol),
	}
	_, exSpan := obs.StartSpan(ctx, "extract")
	exSpan.SetAttr("members", len(pr.Members))
	defer exSpan.End()
	for i, mem := range pr.Members {
		memTP := rat.Mul(mem.Weight, sol.Objective)
		out.Members = append(out.Members, &MemberSolution{Weight: rat.Copy(mem.Weight),
			Throughput: rat.Copy(memTP), Part: frags[i].Extract(sol, memTP), problem: mem.Problem})
	}
	return out, nil
}

// Throughput returns the common base throughput TP; member i delivers
// Weight_i · TP operations per time unit.
func (s *Solution) Throughput() rat.Rat { return rat.Copy(s.TP) }

// Period returns the merged schedule period: the LCM of the member
// periods.
func (s *Solution) Period() *big.Int {
	rates := []rat.Rat{rat.Copy(s.TP)}
	for _, ms := range s.Members {
		rates = append(rates, ms.Part.AllRates()...)
	}
	return rat.DenominatorLCM(rates...)
}

// Verify re-checks the solution independently of the LP solver: every
// member's own constraints (its own capacity, conservation, delivery at
// Weight·TP), then the shared capacity — per-edge occupation, per-node
// one-port send and receive totals and per-node compute totals, each
// summed over all members' demands (core.VerifyCapacity) — that makes the
// superposition feasible.
func (s *Solution) Verify() error {
	demands := make([]core.Demand, len(s.Members))
	for i, ms := range s.Members {
		if err := ms.Part.Verify(); err != nil {
			return fmt.Errorf("composite: member %d: %w", i, err)
		}
		demands[i] = ms.Part.Demand()
	}
	if err := core.VerifyCapacity(s.Problem.Platform, demands...); err != nil {
		return fmt.Errorf("composite: members together: %w", err)
	}
	return nil
}

// Schedule builds the merged periodic schedule: the union of every
// member's transfers over the LCM period, decomposed into one-port-safe
// matching slots; member i's transfers are labeled "op<i>:…".
func (s *Solution) Schedule() (*schedule.Schedule, error) {
	members := make([]core.Demand, len(s.Members))
	for i, ms := range s.Members {
		members[i] = ms.flows(MemberLabel(i))
	}
	return schedule.MergeFlows(s.Problem.Platform, s.Period(), members)
}

// String renders the composite in the spirit of the paper's figures: the
// common throughput, then each member's summary.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "composite throughput TP = %s (period %s, %d members)\n",
		s.TP.RatString(), s.Period().String(), len(s.Members))
	for i, ms := range s.Members {
		fmt.Fprintf(&b, "member %d (%s, weight %s): TP = %s\n",
			i, ms.Kind(), ms.Weight.RatString(), ms.Throughput.RatString())
	}
	return b.String()
}
