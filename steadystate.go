// Package steadystate is the public API of this repository: a Go
// implementation of
//
//	A. Legrand, L. Marchal, Y. Robert,
//	"Optimizing the steady-state throughput of scatter and reduce
//	operations on heterogeneous platforms", IPPS 2004 (INRIA RR-4872).
//
// Instead of minimizing the completion time of a single collective
// communication, the library pipelines a long series of identical
// collectives on a heterogeneous platform — a directed graph of processors
// and routers with per-link transfer costs and per-node compute speeds,
// operating under the bidirectional one-port model — and computes the
// optimal steady-state throughput TP (operations started per time unit)
// together with a concrete periodic schedule achieving it:
//
//   - Scatter (Section 3): one source, one distinct message per target per
//     operation; the optimum is a typed multi-route flow.
//   - Broadcast (companion work): one source, the same message to every
//     target per operation — the scatter LP with one commodity replicated
//     to all targets, charged to the one-port model through shared
//     per-edge carry rates.
//   - Gossip / personalized all-to-all (Section 3.5): every source sends a
//     distinct message to every target per operation.
//   - Reduce (Section 4): participants P_0…P_N hold values v_i, and
//     v_0 ⊕ … ⊕ v_N (⊕ associative, non-commutative) must reach a target.
//     The optimum consists of the rates of partial-result transfers
//     v[k,m] and merge tasks T_{k,l,m}; ExtractTrees certifies them as a
//     small weighted family of reduction trees (Theorem 1).
//   - Parallel prefix (Section 6 extension): every rank i receives v[0,i].
//   - Reduce-scatter: each rank i of the order keeps segment i reduced
//     over all ranks — the composite of N concurrent reduces sharing the
//     platform's port and compute capacity.
//   - Allreduce: every rank receives the full reduction — the composite
//     of a reduce-scatter phase and an allgather (gossip) phase at a
//     common rate.
//   - Composite: any weighted superposition of the base collectives,
//     solved as one LP with shared capacity rows and a common (weighted)
//     throughput.
//
// All of these collectives are instances of one steady-state framework (a
// linear program over the same platform graph), and the API reflects
// that: a Spec names the collective (kind + roles), the single entry
// point Solve computes its optimal throughput, and the returned Solution
// uniformly exposes the schedule, the protocol simulation model and a
// serializable Report:
//
//	p := steadystate.NewPlatform()
//	src := p.AddNode("src", steadystate.R(1, 1))
//	dst := p.AddNode("dst", steadystate.R(1, 1))
//	p.AddLink(src, dst, steadystate.R(1, 4)) // 4 unit messages per time unit
//	sol, _ := steadystate.Solve(ctx, p, steadystate.ScatterSpec(src, dst))
//	fmt.Println(sol.Throughput()) // exact rational: 4
//	sched, _ := sol.Schedule()    // one-port-safe periodic schedule
//
// Reduce-family solves take functional options — WithMessageSize,
// WithTaskTime, WithBlockSize, WithFixedPeriod:
//
//	p, order, target := steadystate.PaperFig9()
//	sol, _ := steadystate.Solve(ctx, p, steadystate.ReduceSpec(order, target),
//	    steadystate.WithMessageSize(steadystate.PaperFig9MessageSize()))
//
// Concurrent collectives superpose through CompositeSpec (arbitrary
// weighted members) or ReduceScatterSpec; the returned Solution
// additionally implements Concurrent, exposing each member as a full
// per-kind Solution, and Schedule merges every member's transfers into
// one one-port-safe slot sequence:
//
//	sol, _ := steadystate.Solve(ctx, p, steadystate.ReduceScatterSpec(order...))
//	for _, member := range sol.(steadystate.Concurrent).Members() {
//	    fmt.Println(member.Spec().Target, member.Throughput())
//	}
//
// For repeated solves on one platform (sweeps, services), a Solver
// session reuses per-platform state and is safe for concurrent use:
//
//	solver := steadystate.NewSolver(p)
//	for _, spec := range specs {
//	    sol, err := solver.Solve(ctx, spec)
//	    ...
//	}
//
// The context cancels the exact simplex loop between pivots, so oversized
// solves can be bounded by deadlines. Platforms, Specs and Reports
// (solution summaries) all serialize to JSON — see Scenario for the
// platform+spec file format the cmd/ tools exchange.
//
// All arithmetic is exact over the rationals (math/big.Rat): throughputs,
// schedules and periods are bit-exact, not floating point. Supporting
// machinery is exposed for schedule construction (weighted-matching
// decomposition into one-port-safe slots, Section 3.3), fixed-period
// approximation (Section 4.6), dynamic simulation of the buffered
// steady-state protocol (Section 3.4), baseline comparators, and topology
// generation (including the paper's own example platforms).
package steadystate

import (
	"math/big"

	"repro/internal/baseline"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Platform is the heterogeneous platform graph G = (V, E, c): directed
// edges carry the time to transfer a unit-size message; non-router nodes
// carry compute speeds. Platform.ContentHash identifies a platform by the
// sha256 of its canonical JSON — the session-sharing and report-cache key
// of the sweep engine and the solverd serving layer.
type Platform = graph.Platform

// NodeID identifies a platform node.
type NodeID = graph.NodeID

// Node is one platform resource.
type Node = graph.Node

// Edge is one directed communication link.
type Edge = graph.Edge

// Rat is an exact rational number (alias of *math/big.Rat).
type Rat = rat.Rat

// NewPlatform returns an empty platform.
func NewPlatform() *Platform { return graph.New() }

// R returns the exact rational n/d.
func R(n, d int64) Rat { return rat.New(n, d) }

// ParseRat parses "3", "3/4" or "0.75" into an exact rational.
func ParseRat(s string) (Rat, error) { return rat.Parse(s) }

// ---------------------------------------------------------------------------
// Scatter (Section 3)

// ScatterProblem is a Series of Scatters instance.
type ScatterProblem = scatter.Problem

// ScatterSolution is a solved Series of Scatters.
type ScatterSolution = scatter.Solution

// ---------------------------------------------------------------------------
// Broadcast (companion work)

// BroadcastProblem is a Series of Broadcasts instance: one source, every
// target receives a copy of every message. Build one through Solve with
// BroadcastSpec(source, targets...).
type BroadcastProblem = scatter.BroadcastProblem

// BroadcastSolution is a solved Series of Broadcasts: the optimal
// throughput, the per-target virtual flows, and the shared per-edge carry
// rates the one-port model is charged for.
type BroadcastSolution = scatter.BroadcastSolution

// ---------------------------------------------------------------------------
// Gossip (Section 3.5)

// GossipProblem is a Series of Gossips (personalized all-to-all) instance.
type GossipProblem = scatter.GossipProblem

// GossipSolution is a solved Series of Gossips.
type GossipSolution = scatter.GossipSolution

// ---------------------------------------------------------------------------
// Reduce (Section 4)

// ReduceProblem is a Series of Reduces instance — the input of the
// fixed-tree baselines (FlatReduceTree, BinaryReduceTree). Solve a reduce
// through Solve with ReduceSpec; WithMessageSize and WithTaskTime set its
// size and task-time functions.
type ReduceProblem = reduce.Problem

// ReduceSolution is a solved Series of Reduces.
type ReduceSolution = reduce.Solution

// ReduceApplication is the integer per-period form of a reduce solution.
type ReduceApplication = reduce.Application

// ReductionTree is one weighted reduction tree of an extracted family.
type ReductionTree = reduce.Tree

// ReduceRange identifies a partial result v[K,M].
type ReduceRange = reduce.Range

// ReduceTask identifies a merge task T_{K,L,M}.
type ReduceTask = reduce.Task

// NewReduceProblem validates a reduce instance: order lists the
// participants (order[i] holds v_i); target stores the final result.
func NewReduceProblem(p *Platform, order []NodeID, target NodeID) (*ReduceProblem, error) {
	return reduce.NewProblem(p, order, target)
}

// NewGatherProblem configures a Series of Gathers as a reduce whose
// operator is concatenation: partial results have size (m−k+1)·blockSize
// and merges are free. Gathers in rank order are exactly non-commutative
// reductions (paper, Section 4).
func NewGatherProblem(p *Platform, order []NodeID, target NodeID, blockSize Rat) (*ReduceProblem, error) {
	return reduce.NewGatherProblem(p, order, target, blockSize)
}

// FixedPeriodPlan is the Section 4.6 approximation of a tree family for an
// arbitrary period.
type FixedPeriodPlan = reduce.FixedPeriodPlan

// ApproximateFixedPeriod re-weights extracted trees for the period fixed,
// losing at most card(trees)/fixed of throughput (Proposition 4).
func ApproximateFixedPeriod(app *ReduceApplication, trees []*ReductionTree, fixed *big.Int) (*FixedPeriodPlan, error) {
	return reduce.ApproximateFixedPeriod(app, trees, fixed)
}

// VerifyTreeDecomposition checks Theorem 1's Σ w(T)·χ_T = A equation.
func VerifyTreeDecomposition(app *ReduceApplication, trees []*ReductionTree) error {
	return reduce.VerifyDecomposition(app, trees)
}

// ---------------------------------------------------------------------------
// Concurrent collectives (composite / reduce-scatter)

// CompositeProblem is a set of collectives solved as one steady-state LP
// with shared one-port and compute capacity; build one through Solve with
// CompositeSpec or ReduceScatterSpec.
type CompositeProblem = composite.Problem

// CompositeSolution is a solved composite: the common base throughput TP
// (member i runs at Weight_i·TP) and the per-member sub-solutions. It is
// what a composite or reduce-scatter Solution unwraps to.
type CompositeSolution = composite.Solution

// CompositeMemberSolution is one member's share of a solved composite: its
// Part is the member's per-kind solution, and Schedule builds the member's
// own periodic schedule.
type CompositeMemberSolution = composite.MemberSolution

// ---------------------------------------------------------------------------
// Parallel prefix (Section 6 extension)

// PrefixProblem is a Series of Parallel Prefixes instance.
type PrefixProblem = reduce.PrefixProblem

// PrefixSolution is a solved prefix series.
type PrefixSolution = reduce.PrefixSolution

// ---------------------------------------------------------------------------
// Schedules (Sections 3.3, 4.3)

// Schedule is a concrete periodic communication schedule: consecutive
// slots, each a one-port-safe matching of simultaneous transfers.
type Schedule = schedule.Schedule

// ScheduleSlot is one slot of a periodic schedule.
type ScheduleSlot = schedule.Slot

// ReduceSchedule serializes a reduce tree family's period; pass a nil
// period to use the application's exact period, or a fixed-period plan's
// trees with its period.
func ReduceSchedule(app *ReduceApplication, trees []*ReductionTree, period *big.Int) (*Schedule, error) {
	if period == nil {
		period = app.Period
	}
	return schedule.MergeFlows(app.Problem.Platform, period, []core.Demand{app.TreeDemand(trees, period)})
}

// ---------------------------------------------------------------------------
// Simulation (Section 3.4 protocol)

// SimModel is a dynamic model of the buffered periodic protocol.
type SimModel = sim.Model

// SimResult reports a finished simulation run.
type SimResult = sim.Result

// MergeSimModels superposes per-member simulation models over a common
// period (each member period must divide it), namespacing each member's
// commodities with its label — the dynamic counterpart of the merged
// one-port schedule. Composite solutions do this internally via SimModel.
func MergeSimModels(p *Platform, period *big.Int, members []*SimModel, labels []string) (*SimModel, error) {
	return sim.Merge(p, period, members, labels)
}

// SimMemberPrefix returns member i's commodity-namespace prefix ("op<i>:")
// in a merged composite model; pass it to SimResult.MinDeliveredPrefix to
// read that member's delivered counts.
func SimMemberPrefix(i int) string { return composite.MemberLabel(i) }

// Simulate runs the Section 3.4 protocol for the given number of periods
// and reports delivered operations, buffer high-water marks, the end of
// the initialization phase and the first period that repeats its buffers.
// It stops stepping at that period and adds the remaining ones exactly, so
// its cost does not grow with the number of periods past the warmup.
func Simulate(m *SimModel, periods int) (*SimResult, error) { return sim.Run(m, periods) }

// SimLatencyResult reports per-operation pipeline latency.
type SimLatencyResult = sim.LatencyResult

// SimulateLatency runs the protocol with FIFO origin tracking, measuring
// how many periods each delivered operation spent in flight — the latency
// cost of throughput-optimal pipelining.
func SimulateLatency(m *SimModel, periods int) (*SimLatencyResult, error) {
	return sim.RunLatency(m, periods)
}

// ---------------------------------------------------------------------------
// Baselines

// BaselineScatter is a single-path scatter plan and its throughput.
type BaselineScatter = baseline.ScatterResult

// BaselineReduce is a fixed single-tree reduce plan and its throughput.
type BaselineReduce = baseline.ReduceResult

// SinglePathScatter evaluates the static min-cost-path scatter baseline.
func SinglePathScatter(p *Platform, source NodeID, targets []NodeID) (*BaselineScatter, error) {
	return baseline.SinglePathScatter(p, source, targets)
}

// FlatReduceTree evaluates the gather-then-reduce-at-target baseline.
func FlatReduceTree(pr *ReduceProblem) (*BaselineReduce, error) {
	return baseline.FlatReduceTree(pr)
}

// BinaryReduceTree evaluates the balanced-merge-tree baseline.
func BinaryReduceTree(pr *ReduceProblem) (*BaselineReduce, error) {
	return baseline.BinaryReduceTree(pr)
}

// ---------------------------------------------------------------------------
// Topologies

// TiersConfig sizes a Tiers-like hierarchical random platform.
type TiersConfig = topology.TiersConfig

// RandomConfig controls the plain random generators.
type RandomConfig = topology.RandomConfig

// DefaultTiersConfig mirrors the scale of the paper's Figure 9.
func DefaultTiersConfig(seed int64) TiersConfig { return topology.DefaultTiersConfig(seed) }

// Tiers generates a Tiers-like WAN/MAN/LAN platform.
func Tiers(cfg TiersConfig) *Platform { return topology.Tiers(cfg) }

// Star builds a hub-and-spoke platform: node 0 linked to n peers.
func Star(n int, cost, speed Rat) *Platform { return topology.Star(n, cost, speed) }

// Chain builds a line of n nodes with symmetric links.
func Chain(n int, cost, speed Rat) *Platform { return topology.Chain(n, cost, speed) }

// Ring builds a cycle of n nodes with symmetric links.
func Ring(n int, cost, speed Rat) *Platform { return topology.Ring(n, cost, speed) }

// Grid2D builds an r×c mesh with symmetric links.
func Grid2D(r, c int, cost, speed Rat) *Platform {
	return topology.Grid2D(r, c, cost, speed)
}

// PaperFig2 returns the paper's toy scatter platform (TP = 1/2).
func PaperFig2() (*Platform, NodeID, []NodeID) { return topology.PaperFig2() }

// PaperFig6 returns the paper's toy reduce platform (TP = 1).
func PaperFig6() (*Platform, []NodeID, NodeID) { return topology.PaperFig6() }

// PaperFig9 returns the paper's 14-node Tiers experiment platform.
func PaperFig9() (*Platform, []NodeID, NodeID) { return topology.PaperFig9() }

// PaperFig9MessageSize is the message size of the Figure 9 experiment.
func PaperFig9MessageSize() Rat { return topology.PaperFig9MessageSize() }
