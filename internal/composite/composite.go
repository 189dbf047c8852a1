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
// Each member's variables keep their own conservation structure (the
// members exchange no data), so the per-member sub-solutions are ordinary
// scatter/broadcast/gossip/reduce/prefix solutions (a MemberSolution's
// Part) and reuse the existing tree-extraction and verification
// machinery. The merged periodic schedule decomposes the union of all
// members' transfers into one sequence of one-port-safe matching slots
// over the LCM of the member periods; a member's own schedule
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
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/prefix"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/schedule"
)

// Member is one collective of a composite: exactly one problem field is
// set, and Weight scales the member's delivered rate relative to the
// common base throughput (member i delivers Weight_i · TP per time unit).
type Member struct {
	Weight    rat.Rat
	Scatter   *scatter.Problem
	Broadcast *scatter.BroadcastProblem
	Gossip    *gossip.Problem
	Reduce    *reduce.Problem
	Prefix    *prefix.Problem
}

// ScatterMember wraps a scatter problem as a weighted member.
func ScatterMember(pr *scatter.Problem, weight rat.Rat) Member {
	return Member{Weight: rat.Copy(weight), Scatter: pr}
}

// BroadcastMember wraps a broadcast problem as a weighted member.
func BroadcastMember(pr *scatter.BroadcastProblem, weight rat.Rat) Member {
	return Member{Weight: rat.Copy(weight), Broadcast: pr}
}

// GossipMember wraps a gossip problem as a weighted member.
func GossipMember(pr *gossip.Problem, weight rat.Rat) Member {
	return Member{Weight: rat.Copy(weight), Gossip: pr}
}

// ReduceMember wraps a reduce (or gather) problem as a weighted member.
func ReduceMember(pr *reduce.Problem, weight rat.Rat) Member {
	return Member{Weight: rat.Copy(weight), Reduce: pr}
}

// PrefixMember wraps a prefix problem as a weighted member.
func PrefixMember(pr *prefix.Problem, weight rat.Rat) Member {
	return Member{Weight: rat.Copy(weight), Prefix: pr}
}

// Kind names the member's collective family.
func (mem Member) Kind() string {
	switch {
	case mem.Scatter != nil:
		return "scatter"
	case mem.Broadcast != nil:
		return "broadcast"
	case mem.Gossip != nil:
		return "gossip"
	case mem.Reduce != nil:
		return "reduce"
	case mem.Prefix != nil:
		return "prefix"
	}
	return "empty"
}

// platform returns the platform of the member's problem.
func (mem Member) platform() *graph.Platform {
	switch {
	case mem.Scatter != nil:
		return mem.Scatter.Platform
	case mem.Broadcast != nil:
		return mem.Broadcast.Platform
	case mem.Gossip != nil:
		return mem.Gossip.Platform
	case mem.Reduce != nil:
		return mem.Reduce.Platform
	case mem.Prefix != nil:
		return mem.Prefix.Platform
	}
	return nil
}

func (mem Member) validate(i int, p *graph.Platform) error {
	set := 0
	for _, ok := range []bool{mem.Scatter != nil, mem.Broadcast != nil, mem.Gossip != nil, mem.Reduce != nil, mem.Prefix != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("composite: member %d must set exactly one problem, has %d", i, set)
	}
	if mem.Weight == nil || mem.Weight.Sign() <= 0 {
		return fmt.Errorf("composite: member %d has non-positive weight", i)
	}
	if mem.platform() != p {
		return fmt.Errorf("composite: member %d is bound to a different platform", i)
	}
	return nil
}

// Problem is a set of collectives solved as one steady-state LP on one
// platform with shared one-port and compute capacity.
type Problem struct {
	Platform *graph.Platform
	Members  []Member
}

// NewProblem validates and returns a composite instance. Every member must
// reference the same platform value the composite is built on.
func NewProblem(p *graph.Platform, members []Member) (*Problem, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("composite: no members")
	}
	for i, mem := range members {
		if err := mem.validate(i, p); err != nil {
			return nil, err
		}
	}
	return &Problem{Platform: p, Members: append([]Member(nil), members...)}, nil
}

// Part is a solved base-kind collective — one member's share of a solved
// composite: a *scatter.Solution, *scatter.BroadcastSolution,
// *gossip.Solution, *reduce.Solution or *prefix.Solution.
type Part interface {
	Throughput() rat.Rat
	Period() *big.Int
	// AllRates returns the part's rates plus its throughput: the input to
	// the period computation.
	AllRates() []rat.Rat
	Verify() error
	String() string
}

// MemberSolution is one member's share of a solved composite: an ordinary
// per-kind solution whose rates satisfy the member's own conservation and
// delivery constraints at Throughput = Weight · TP. The members were
// solved jointly, so the LP counters live once, on Solution.Stats.
type MemberSolution struct {
	Weight     rat.Rat
	Throughput rat.Rat
	// Part is the member's own per-kind solution.
	Part Part

	kind     string
	platform *graph.Platform
}

// Kind names the member's collective family.
func (ms *MemberSolution) Kind() string { return ms.kind }

// Verify re-checks the member's own constraints (conservation, delivery at
// Weight·TP, per-member occupations).
func (ms *MemberSolution) Verify() error { return ms.Part.Verify() }

// AllRates returns the member's rates plus its throughput.
func (ms *MemberSolution) AllRates() []rat.Rat { return ms.Part.AllRates() }

// Period returns the member's own integer schedule period (LCM of its rate
// denominators).
func (ms *MemberSolution) Period() *big.Int {
	return rat.DenominatorLCM(ms.AllRates()...)
}

// Schedule builds the member's own periodic schedule: its transfers at its
// own period, decomposed into one-port-safe matching slots — the
// one-member case of Solution.Schedule, and the schedule of a plain
// scatter, broadcast, gossip or prefix solve (a plain reduce or gather
// serializes its certified trees instead).
func (ms *MemberSolution) Schedule() (*schedule.Schedule, error) {
	return schedule.MergeFlows(ms.platform, ms.Period(), []schedule.MemberFlow{ms.flows("")})
}

// flows returns the member's transfers and compute occupation for the
// merged schedule and the shared-capacity checks, with labels prefixed for
// the member. Scatter and gossip label a transfer by its commodity, a
// broadcast moves its carry stream — one shared copy per edge, not one
// per target — and the reduce family labels partial results by range and
// adds its compute time. Transfers are emitted in deterministic order: the
// matching decomposition is order-sensitive, so map-ordered rates would
// otherwise lay out different slots run to run.
func (ms *MemberSolution) flows(label string) schedule.MemberFlow {
	p := ms.platform
	out := schedule.MemberFlow{ComputeTime: make(map[graph.NodeID]rat.Rat)}
	add := func(from, to graph.NodeID, lbl string, size, r rat.Rat) {
		out.Transfers = append(out.Transfers, schedule.FlowTransfer{
			From: from, To: to, Label: label + lbl, Size: size, Rate: rat.Copy(r),
		})
	}
	var sends map[reduce.SendKey]rat.Rat
	var tasks map[reduce.TaskKey]rat.Rat
	var sizeOf func(reduce.Range) rat.Rat
	var taskTime func(graph.NodeID, reduce.Task) rat.Rat
	switch part := ms.Part.(type) {
	case *scatter.Solution:
		for e, types := range part.Flow.Sends {
			for c, r := range types {
				add(e.From, e.To, "m_"+p.Node(c.Dst).Name, rat.One(), r)
			}
		}
	case *gossip.Solution:
		for e, types := range part.Flow.Sends {
			for c, r := range types {
				add(e.From, e.To, "m_"+p.Node(c.Src).Name+"_"+p.Node(c.Dst).Name, rat.One(), r)
			}
		}
	case *scatter.BroadcastSolution:
		for _, tr := range part.CarryTransfers() {
			add(tr.From, tr.To, "bcast", rat.One(), tr.Rate)
		}
	case *reduce.Solution:
		sends, tasks, sizeOf, taskTime = part.Sends, part.Tasks, part.Problem.SizeOf, part.Problem.TaskTime
	case *prefix.Solution:
		sends, tasks, sizeOf, taskTime = part.Sends, part.Tasks, part.Problem.SizeOf, part.Problem.TaskTime
	}
	for k, r := range sends {
		add(k.From, k.To, k.R.String(), sizeOf(k.R), r)
	}
	for k, r := range tasks {
		if out.ComputeTime[k.Node] == nil {
			out.ComputeTime[k.Node] = rat.Zero()
		}
		out.ComputeTime[k.Node].Add(out.ComputeTime[k.Node], rat.Mul(r, taskTime(k.Node, k.T)))
	}
	sort.Slice(out.Transfers, func(i, j int) bool {
		a, b := out.Transfers[i], out.Transfers[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return out
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

// memberFragments holds one member's LP fragments during assembly.
type memberFragments struct {
	flow  *core.FlowFragment
	bcast *scatter.BroadcastFragment
	red   *reduce.Fragment
	pre   *prefix.Fragment
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

	frags := make([]memberFragments, len(pr.Members))
	for i, mem := range pr.Members {
		label := MemberLabel(i)
		switch {
		case mem.Scatter != nil:
			comms := make([]core.Commodity, len(mem.Scatter.Targets))
			for j, t := range mem.Scatter.Targets {
				comms[j] = core.Commodity{Src: mem.Scatter.Source, Dst: t}
			}
			f, err := core.NewFlowFragment(ctx, m, label, pr.Platform, comms, occ)
			if err != nil {
				return nil, fmt.Errorf("composite: member %d: %w", i, err)
			}
			frags[i].flow = f
		case mem.Broadcast != nil:
			frags[i].bcast = mem.Broadcast.NewFragment(ctx, m, label, occ)
		case mem.Gossip != nil:
			f, err := core.NewFlowFragment(ctx, m, label, pr.Platform, mem.Gossip.Commodities(), occ)
			if err != nil {
				return nil, fmt.Errorf("composite: member %d: %w", i, err)
			}
			frags[i].flow = f
		case mem.Reduce != nil:
			frags[i].red = mem.Reduce.NewFragment(ctx, m, label, occ)
		case mem.Prefix != nil:
			frags[i].pre = mem.Prefix.NewFragment(ctx, m, label, occ)
		}
	}
	occ.AddConstraints(m)
	for i := range pr.Members {
		label := MemberLabel(i)
		switch {
		case frags[i].red != nil:
			frags[i].red.AddComputeVars(m, label, comp)
		case frags[i].pre != nil:
			frags[i].pre.AddComputeVars(m, label, comp)
		}
	}
	comp.AddConstraints(m)
	for i, mem := range pr.Members {
		label := MemberLabel(i)
		switch {
		case frags[i].flow != nil:
			frags[i].flow.AddFlowConstraints(m, label, tp, mem.Weight)
		case frags[i].bcast != nil:
			frags[i].bcast.AddFlowConstraints(m, label, tp, mem.Weight)
		case frags[i].red != nil:
			frags[i].red.AddFlowConstraints(m, label, tp, mem.Weight)
		case frags[i].pre != nil:
			frags[i].pre.AddFlowConstraints(m, label, tp, mem.Weight)
		}
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
		ms := &MemberSolution{Weight: rat.Copy(mem.Weight), Throughput: rat.Copy(memTP),
			kind: mem.Kind(), platform: pr.Platform}
		switch {
		case mem.Scatter != nil:
			ms.Part = &scatter.Solution{Problem: mem.Scatter, Flow: frags[i].flow.Extract(sol, memTP)}
		case mem.Broadcast != nil:
			ms.Part = frags[i].bcast.Extract(sol, memTP)
		case mem.Gossip != nil:
			ms.Part = &gossip.Solution{Problem: mem.Gossip, Flow: frags[i].flow.Extract(sol, memTP)}
		case mem.Reduce != nil:
			ms.Part = frags[i].red.Extract(sol, memTP)
		case mem.Prefix != nil:
			ms.Part = frags[i].pre.Extract(sol, memTP)
		}
		out.Members = append(out.Members, ms)
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
		rates = append(rates, ms.AllRates()...)
	}
	return rat.DenominatorLCM(rates...)
}

// Verify re-checks the solution independently of the LP solver: every
// member's own constraints (conservation, delivery at Weight·TP), then the
// shared capacity rows — per-edge occupation, per-node one-port send and
// receive totals, and per-node compute totals, each summed over all
// members — that make the superposition feasible.
func (s *Solution) Verify() error {
	p := s.Problem.Platform
	edgeTot := make(map[core.EdgeKey]rat.Rat)
	outTot := make(map[graph.NodeID]rat.Rat)
	inTot := make(map[graph.NodeID]rat.Rat)
	compTot := make(map[graph.NodeID]rat.Rat)

	for i, ms := range s.Members {
		if err := ms.Verify(); err != nil {
			return fmt.Errorf("composite: member %d: %w", i, err)
		}
		mf := ms.flows("")
		for _, tr := range mf.Transfers {
			occ := rat.Mul(rat.Mul(tr.Rate, tr.Size), p.Cost(tr.From, tr.To))
			k := core.EdgeKey{From: tr.From, To: tr.To}
			if edgeTot[k] == nil {
				edgeTot[k] = rat.Zero()
			}
			edgeTot[k].Add(edgeTot[k], occ)
			if outTot[tr.From] == nil {
				outTot[tr.From] = rat.Zero()
			}
			if inTot[tr.To] == nil {
				inTot[tr.To] = rat.Zero()
			}
			outTot[tr.From].Add(outTot[tr.From], occ)
			inTot[tr.To].Add(inTot[tr.To], occ)
		}
		for id, busy := range mf.ComputeTime {
			if compTot[id] == nil {
				compTot[id] = rat.Zero()
			}
			compTot[id].Add(compTot[id], busy)
		}
	}
	for k, occ := range edgeTot {
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("composite: shared edge %s→%s occupation %s > 1",
				p.Node(k.From).Name, p.Node(k.To).Name, occ.RatString())
		}
	}
	for id, occ := range outTot {
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("composite: node %s sends for %s > 1 across members",
				p.Node(id).Name, occ.RatString())
		}
	}
	for id, occ := range inTot {
		if occ.Cmp(rat.One()) > 0 {
			return fmt.Errorf("composite: node %s receives for %s > 1 across members",
				p.Node(id).Name, occ.RatString())
		}
	}
	for id, busy := range compTot {
		if busy.Cmp(rat.One()) > 0 {
			return fmt.Errorf("composite: node %s computes for %s > 1 across members",
				p.Node(id).Name, busy.RatString())
		}
	}
	return nil
}

// Schedule builds the merged periodic schedule: the union of every
// member's transfers over the LCM period, decomposed into one-port-safe
// matching slots; member i's transfers are labeled "op<i>:…".
func (s *Solution) Schedule() (*schedule.Schedule, error) {
	members := make([]schedule.MemberFlow, len(s.Members))
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
