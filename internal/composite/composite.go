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
// scatter/gossip/reduce/prefix solutions and reuse the existing schedule,
// tree-extraction and verification machinery. The merged periodic schedule
// decomposes the union of all members' transfers into one sequence of
// one-port-safe matching slots over the LCM of the member periods.
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

// MemberSolution is one member's share of a solved composite: an ordinary
// per-kind solution whose rates satisfy the member's own conservation and
// delivery constraints at Throughput = Weight · TP. The members were
// solved jointly, so the LP counters live once, on Solution.Stats.
type MemberSolution struct {
	Weight     rat.Rat
	Throughput rat.Rat
	Scatter    *scatter.Solution
	Broadcast  *scatter.BroadcastSolution
	Gossip     *gossip.Solution
	Reduce     *reduce.Solution
	Prefix     *prefix.Solution
}

// Kind names the member's collective family.
func (ms *MemberSolution) Kind() string {
	switch {
	case ms.Scatter != nil:
		return "scatter"
	case ms.Broadcast != nil:
		return "broadcast"
	case ms.Gossip != nil:
		return "gossip"
	case ms.Reduce != nil:
		return "reduce"
	case ms.Prefix != nil:
		return "prefix"
	}
	return "empty"
}

// Verify re-checks the member's own constraints (conservation, delivery at
// Weight·TP, per-member occupations).
func (ms *MemberSolution) Verify() error {
	switch {
	case ms.Scatter != nil:
		return ms.Scatter.Verify()
	case ms.Broadcast != nil:
		return ms.Broadcast.Verify()
	case ms.Gossip != nil:
		return ms.Gossip.Verify()
	case ms.Reduce != nil:
		return ms.Reduce.Verify()
	case ms.Prefix != nil:
		return ms.Prefix.Verify()
	}
	return fmt.Errorf("composite: empty member solution")
}

// AllRates returns the member's rates plus its throughput.
func (ms *MemberSolution) AllRates() []rat.Rat {
	switch {
	case ms.Scatter != nil:
		return ms.Scatter.Flow.AllRates()
	case ms.Broadcast != nil:
		return ms.Broadcast.AllRates()
	case ms.Gossip != nil:
		return ms.Gossip.Flow.AllRates()
	case ms.Reduce != nil:
		return ms.Reduce.AllRates()
	case ms.Prefix != nil:
		return ms.Prefix.AllRates()
	}
	return nil
}

// Period returns the member's own integer schedule period (LCM of its rate
// denominators).
func (ms *MemberSolution) Period() *big.Int {
	return rat.DenominatorLCM(ms.AllRates()...)
}

// sizeOf returns the member's message-size function over its range types
// (unit for scatter/gossip commodities).
func (ms *MemberSolution) sizeOf(r reduce.Range) rat.Rat {
	switch {
	case ms.Reduce != nil:
		return ms.Reduce.Problem.SizeOf(r)
	case ms.Prefix != nil:
		return ms.Prefix.Problem.SizeOf(r)
	}
	return rat.One()
}

// flows returns the member's transfers and compute occupation for the
// merged schedule and the shared-capacity checks, with labels prefixed for
// the member. Transfers are emitted in deterministic order.
func (ms *MemberSolution) flows(p *graph.Platform, label string) schedule.MemberFlow {
	var out schedule.MemberFlow
	switch {
	case ms.Broadcast != nil:
		out = BroadcastMemberFlow(ms.Broadcast, label)
	case ms.Scatter != nil, ms.Gossip != nil:
		var flow *core.Flow[core.Commodity]
		if ms.Scatter != nil {
			flow = ms.Scatter.Flow
		} else {
			flow = ms.Gossip.Flow
		}
		for e, types := range flow.Sends {
			for c, r := range types {
				lbl := label + "m_" + p.Node(c.Dst).Name
				if ms.Gossip != nil {
					lbl = label + "m_" + p.Node(c.Src).Name + "_" + p.Node(c.Dst).Name
				}
				out.Transfers = append(out.Transfers, schedule.FlowTransfer{
					From: e.From, To: e.To, Label: lbl, Size: rat.One(), Rate: rat.Copy(r),
				})
			}
		}
	case ms.Reduce != nil, ms.Prefix != nil:
		var sends map[reduce.SendKey]rat.Rat
		var tasks map[reduce.TaskKey]rat.Rat
		var taskTime func(graph.NodeID, reduce.Task) rat.Rat
		if ms.Reduce != nil {
			sends, tasks, taskTime = ms.Reduce.Sends, ms.Reduce.Tasks, ms.Reduce.Problem.TaskTime
		} else {
			sends, tasks, taskTime = ms.Prefix.Sends, ms.Prefix.Tasks, ms.Prefix.Problem.TaskTime
		}
		for k, r := range sends {
			out.Transfers = append(out.Transfers, schedule.FlowTransfer{
				From: k.From, To: k.To, Label: label + k.R.String(),
				Size: ms.sizeOf(k.R), Rate: rat.Copy(r),
			})
		}
		out.ComputeTime = make(map[graph.NodeID]rat.Rat)
		for k, r := range tasks {
			if out.ComputeTime[k.Node] == nil {
				out.ComputeTime[k.Node] = rat.Zero()
			}
			out.ComputeTime[k.Node].Add(out.ComputeTime[k.Node], rat.Mul(r, taskTime(k.Node, k.T)))
		}
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

// BroadcastMemberFlow converts a broadcast solution's carry stream — the
// messages physically moved, one shared copy per edge, not one per
// target — into a merged-schedule member flow, with every transfer
// labeled label+"bcast". It is the single conversion point for both the
// standalone broadcast schedule and composite merged schedules.
func BroadcastMemberFlow(sol *scatter.BroadcastSolution, label string) schedule.MemberFlow {
	var out schedule.MemberFlow
	for _, tr := range sol.CarryTransfers() {
		out.Transfers = append(out.Transfers, schedule.FlowTransfer{
			From: tr.From, To: tr.To, Label: label + "bcast", Size: rat.One(), Rate: tr.Rate,
		})
	}
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

// memberLabel prefixes variable and constraint names of member i.
func memberLabel(i int) string { return fmt.Sprintf("op%d:", i) }

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
		label := memberLabel(i)
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
		label := memberLabel(i)
		switch {
		case frags[i].red != nil:
			frags[i].red.AddComputeVars(m, label, comp)
		case frags[i].pre != nil:
			frags[i].pre.AddComputeVars(m, label, comp)
		}
	}
	comp.AddConstraints(m)
	for i, mem := range pr.Members {
		label := memberLabel(i)
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
		ms := &MemberSolution{Weight: rat.Copy(mem.Weight), Throughput: rat.Copy(memTP)}
		switch {
		case mem.Scatter != nil:
			ms.Scatter = &scatter.Solution{Problem: mem.Scatter, Flow: frags[i].flow.Extract(sol, memTP)}
		case mem.Broadcast != nil:
			ms.Broadcast = frags[i].bcast.Extract(sol, memTP)
		case mem.Gossip != nil:
			ms.Gossip = &gossip.Solution{Problem: mem.Gossip, Flow: frags[i].flow.Extract(sol, memTP)}
		case mem.Reduce != nil:
			ms.Reduce = frags[i].red.Extract(sol, memTP)
		case mem.Prefix != nil:
			ms.Prefix = frags[i].pre.Extract(sol, memTP)
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
		mf := ms.flows(p, "")
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
	period := s.Period()
	members := make([]schedule.MemberFlow, len(s.Members))
	for i, ms := range s.Members {
		members[i] = ms.flows(s.Problem.Platform, memberLabel(i))
	}
	return schedule.MergeFlows(s.Problem.Platform, period, members)
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
