// api.go defines the unified collective API: every collective kind
// (scatter, broadcast, gossip, reduce, gather, prefix, reduce-scatter,
// allreduce and composite) is described by a Spec, solved through the
// single context-aware entry point Solve, and returned as a Solution that
// uniformly exposes the throughput, the periodic schedule, the simulation
// model and a serializable report.
package steadystate

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/reduce"
	"repro/internal/scatter"
	"repro/internal/sim"
)

// Kind names a collective operation of the steady-state framework.
type Kind string

// The collective kinds solvable through Solve.
const (
	// KindScatter: one source sends one distinct message per target per
	// operation (paper Section 3).
	KindScatter Kind = "scatter"
	// KindBroadcast: one source sends the same message to every target per
	// operation (the paper's companion work) — the scatter LP with one
	// commodity replicated to all targets, charged to the one-port model
	// through shared per-edge carry rates so a copy forwarded once serves
	// every target routed through that edge.
	KindBroadcast Kind = "broadcast"
	// KindGossip: personalized all-to-all — every source sends a distinct
	// message to every target per operation (Section 3.5).
	KindGossip Kind = "gossip"
	// KindReduce: participants hold v_i; v_0 ⊕ … ⊕ v_N reaches the target
	// (Section 4).
	KindReduce Kind = "reduce"
	// KindGather: a reduce whose operator is concatenation — partial
	// results grow with the ranges they cover and merges are free
	// (Section 4's non-commutative instantiation).
	KindGather Kind = "gather"
	// KindPrefix: every rank i receives the prefix v[0,i] (Section 6
	// extension).
	KindPrefix Kind = "prefix"
	// KindReduceScatter: each participant i of Order ends with segment i
	// reduced over all ranks — solved as the composite of N concurrent
	// reduces (segment i targeted at Order[i]) sharing every node's port
	// and compute capacity.
	KindReduceScatter Kind = "reducescatter"
	// KindAllreduce: every participant of Order ends with the full
	// reduction v_0 ⊕ … ⊕ v_N — solved as the composite of a
	// reduce-scatter phase (N concurrent reduces, segment i targeted at
	// Order[i]) and an allgather phase (a gossip redistributing each
	// participant's reduced segment to every other rank), all sharing the
	// platform's port and compute capacity at a common rate.
	KindAllreduce Kind = "allreduce"
	// KindComposite: several member collectives superposed on one
	// platform, maximizing the common (weighted) throughput under shared
	// one-port and compute constraints.
	KindComposite Kind = "composite"
)

// Spec describes one collective instance on a platform: the kind plus the
// participating nodes in the roles that kind requires. Fields not listed
// for a kind are ignored:
//
//	KindScatter:       Source, Targets
//	KindBroadcast:     Source, Targets
//	KindGossip:        Sources, Targets
//	KindReduce:        Order (Order[i] holds v_i), Target (must be in Order)
//	KindGather:        Order, Target (must be in Order)
//	KindPrefix:        Order
//	KindReduceScatter: Order (rank i keeps segment i)
//	KindAllreduce:     Order (every rank receives the full reduction)
//	KindComposite:     Members (base kinds only), Weights (nil: all 1)
//
// Specs serialize to JSON with node IDs; IDs are stable across Platform
// JSON round trips (nodes serialize in insertion order), so a Spec and
// its Platform can travel together in a Scenario file.
type Spec struct {
	Kind    Kind
	Source  NodeID
	Sources []NodeID
	Targets []NodeID
	Order   []NodeID
	Target  NodeID
	// Members are the member collectives of a composite; Weights scale
	// each member's delivered rate relative to the common base throughput
	// (nil means weight 1 for every member).
	Members []Spec
	Weights []Rat
}

// ScatterSpec returns the spec of a scatter from source to targets.
func ScatterSpec(source NodeID, targets ...NodeID) Spec {
	return Spec{Kind: KindScatter, Source: source, Targets: append([]NodeID(nil), targets...)}
}

// BroadcastSpec returns the spec of a broadcast from source to targets:
// every target receives a copy of every message. With a single target the
// problem degenerates to a scatter-to-one (there is nothing to replicate),
// and the throughputs coincide.
func BroadcastSpec(source NodeID, targets ...NodeID) Spec {
	return Spec{Kind: KindBroadcast, Source: source, Targets: append([]NodeID(nil), targets...)}
}

// GossipSpec returns the spec of a personalized all-to-all from sources
// to targets.
func GossipSpec(sources, targets []NodeID) Spec {
	return Spec{
		Kind:    KindGossip,
		Sources: append([]NodeID(nil), sources...),
		Targets: append([]NodeID(nil), targets...),
	}
}

// ReduceSpec returns the spec of a reduce over order (order[i] holds v_i)
// delivering to target.
func ReduceSpec(order []NodeID, target NodeID) Spec {
	return Spec{Kind: KindReduce, Order: append([]NodeID(nil), order...), Target: target}
}

// GatherSpec returns the spec of a gather over order delivering to
// target; set the per-participant block size with WithBlockSize.
func GatherSpec(order []NodeID, target NodeID) Spec {
	return Spec{Kind: KindGather, Order: append([]NodeID(nil), order...), Target: target}
}

// PrefixSpec returns the spec of a parallel prefix over order.
func PrefixSpec(order ...NodeID) Spec {
	return Spec{Kind: KindPrefix, Order: append([]NodeID(nil), order...)}
}

// ReduceScatterSpec returns the spec of a reduce-scatter over order: each
// participant order[i] ends with segment i reduced over all ranks. It
// solves as the composite of len(order) concurrent reduces, one per
// segment, with equal weights — the common throughput is the rate at
// which whole reduce-scatter operations complete.
func ReduceScatterSpec(order ...NodeID) Spec {
	return Spec{Kind: KindReduceScatter, Order: append([]NodeID(nil), order...)}
}

// AllreduceSpec returns the spec of an allreduce over order: every
// participant ends with v_0 ⊕ … ⊕ v_N. It solves as the composite of a
// reduce-scatter phase (one reduce per segment, segment i delivered to
// order[i]) and an allgather phase (a gossip over the participants
// redistributing each reduced segment to every other rank), with equal
// weights — the common throughput is the rate at which whole allreduce
// operations complete.
func AllreduceSpec(order ...NodeID) Spec {
	return Spec{Kind: KindAllreduce, Order: append([]NodeID(nil), order...)}
}

// CompositeSpec returns the spec of a weighted superposition of member
// collectives on one platform: member i is constrained to deliver
// weights[i]·TP operations per time unit and the common base throughput
// TP is maximized. A nil weights gives every member weight 1 (the max-min
// fair common rate). Members must be base kinds (no nested composites).
func CompositeSpec(members []Spec, weights []Rat) Spec {
	ws := make([]Rat, 0, len(weights))
	for _, w := range weights {
		if w == nil {
			// Preserve the nil so validate reports it as a non-positive
			// weight instead of panicking here.
			ws = append(ws, nil)
			continue
		}
		ws = append(ws, rat.Copy(w))
	}
	if len(ws) == 0 {
		ws = nil
	}
	return Spec{
		Kind:    KindComposite,
		Members: append([]Spec(nil), members...),
		Weights: ws,
	}
}

// field is a set of the Spec fields a kind reads, in the order validate
// checks them.
type field uint8

const (
	fSource field = 1 << iota
	fSources
	fTargets
	fOrder
	fTarget  // must be in Order
	fMembers // Members and Weights
)

func (f field) has(g field) bool { return f&g != 0 }

// option is a set of the size, task-time and period options, in the order
// a refusal names them.
type option uint8

const (
	optBlockSize option = 1 << iota
	optFixedPeriod
	optMessageSize
	optTaskTime
)

var optionNames = [...]string{"WithBlockSize", "WithFixedPeriod", "WithMessageSize", "WithTaskTime"}

// kindRow is what the API knows of one kind: the Spec fields it reads,
// the options it takes, the fewest participants its Order needs beyond
// what its problem constructors check, and how it solves. A base kind
// builds its problem and replays a solved part; a composite kind expands
// into member specs of base kinds and their weights (nil: all 1).
type kindRow struct {
	fields   field
	options  option
	minOrder int
	problem  func(p *Platform, s Spec, o *solveOptions) (core.Collective, error)
	replay   func(core.Part) *SimModel
	expand   func(s Spec) (members []Spec, weights []Rat)
}

// kinds is the one statement of every kind's roles, options and solve
// path: adding a kind means a constant, a …Spec constructor and a row.
// The flow kinds take no options, since edge costs fix their message
// sizes; the fixed-period truncation needs a single reduce tree family.
var kinds = map[Kind]kindRow{
	KindScatter: {fields: fSource | fTargets,
		problem: func(p *Platform, s Spec, _ *solveOptions) (core.Collective, error) {
			return scatter.NewProblem(p, s.Source, s.Targets)
		},
		replay: replayFlows},
	// A broadcast replicates per target: each target's bundled virtual
	// flow is a commodity of its own, delivered against TP per target.
	KindBroadcast: {fields: fSource | fTargets,
		problem: func(p *Platform, s Spec, _ *solveOptions) (core.Collective, error) {
			return scatter.NewBroadcastProblem(p, s.Source, s.Targets)
		},
		replay: replayFlows},
	KindGossip: {fields: fSources | fTargets,
		problem: func(p *Platform, s Spec, _ *solveOptions) (core.Collective, error) {
			return scatter.NewGossipProblem(p, s.Sources, s.Targets)
		},
		replay: replayFlows},
	KindReduce: {fields: fOrder | fTarget, options: optMessageSize | optTaskTime | optFixedPeriod,
		problem: func(p *Platform, s Spec, o *solveOptions) (core.Collective, error) {
			pr, err := reduce.NewProblem(p, s.Order, s.Target)
			if err == nil {
				o.tune(&pr.Family, o.messageSize)
			}
			return pr, err
		},
		replay: func(part core.Part) *SimModel { return sim.ReduceModel(part.(*ReduceSolution).Integerize()) }},
	// A gather sizes its partial results by its block size instead.
	KindGather: {fields: fOrder | fTarget, options: optBlockSize | optTaskTime | optFixedPeriod,
		problem: func(p *Platform, s Spec, o *solveOptions) (core.Collective, error) {
			pr, err := reduce.NewGatherProblem(p, s.Order, s.Target, o.blockSize)
			if err == nil {
				o.tune(&pr.Family, nil)
			}
			return pr, err
		},
		replay: func(part core.Part) *SimModel { return sim.ReduceModel(part.(*ReduceSolution).Integerize()) }},
	KindPrefix: {fields: fOrder, options: optMessageSize | optTaskTime,
		problem: func(p *Platform, s Spec, o *solveOptions) (core.Collective, error) {
			pr, err := reduce.NewPrefixProblem(p, s.Order)
			if err == nil {
				o.tune(&pr.Family, o.messageSize)
			}
			return pr, err
		},
		replay: func(part core.Part) *SimModel { return sim.PrefixModel(part.(*PrefixSolution)) }},
	KindReduceScatter: {fields: fOrder, options: optMessageSize | optTaskTime, minOrder: 2,
		expand: func(s Spec) ([]Spec, []Rat) { return reduceScatter(s.Order), nil }},
	// Allreduce is Träff's decomposition: the reduce-scatter members plus
	// an allgather (a gossip redistributing each reduced segment), all at
	// weight 1. The allgather moves unit-size segments, so a message size,
	// which would scale only the reduce phase, is refused.
	KindAllreduce: {fields: fOrder, options: optTaskTime, minOrder: 2,
		expand: func(s Spec) ([]Spec, []Rat) {
			return append(reduceScatter(s.Order), GossipSpec(s.Order, s.Order)), nil
		}},
	// A composite passes each option to the members that take it.
	KindComposite: {fields: fMembers, options: optMessageSize | optTaskTime | optBlockSize,
		expand: func(s Spec) ([]Spec, []Rat) { return s.Members, s.Weights }},
}

// replayFlows builds the replay model of a forwarding kind's part: the
// streams of its commodities.
func replayFlows(part core.Part) *SimModel {
	return sim.FlowModel(part.(interface{ Streams() scatter.Streams }).Streams())
}

// reduceScatter returns the members of a reduce-scatter over order: the
// reduce of segment i, over the full order, delivered to order[i].
func reduceScatter(order []NodeID) []Spec {
	members := make([]Spec, len(order))
	for i, id := range order {
		members[i] = ReduceSpec(order, id)
	}
	return members
}

// jsonSpec is the serialized form: only the fields the kind uses are
// emitted, scalar node IDs travel as pointers so id 0 survives, and
// composite weights travel as exact rational strings.
type jsonSpec struct {
	Kind    Kind     `json:"kind"`
	Source  *NodeID  `json:"source,omitempty"`
	Sources []NodeID `json:"sources,omitempty"`
	Targets []NodeID `json:"targets,omitempty"`
	Order   []NodeID `json:"order,omitempty"`
	Target  *NodeID  `json:"target,omitempty"`
	Members []Spec   `json:"members,omitempty"`
	Weights []string `json:"weights,omitempty"`
}

// MarshalJSON serializes the spec, emitting only the fields its kind
// uses.
func (s Spec) MarshalJSON() ([]byte, error) {
	row, ok := kinds[s.Kind]
	if !ok {
		return nil, fmt.Errorf("steadystate: cannot marshal spec of unknown kind %q", s.Kind)
	}
	js := jsonSpec{Kind: s.Kind}
	if row.fields.has(fSource) {
		js.Source = &s.Source
	}
	if row.fields.has(fSources) {
		js.Sources = s.Sources
	}
	if row.fields.has(fTargets) {
		js.Targets = s.Targets
	}
	if row.fields.has(fOrder) {
		js.Order = s.Order
	}
	if row.fields.has(fTarget) {
		js.Target = &s.Target
	}
	if row.fields.has(fMembers) {
		js.Members = s.Members
		for _, w := range s.Weights {
			js.Weights = append(js.Weights, w.RatString())
		}
	}
	return json.Marshal(js)
}

// UnmarshalJSON deserializes a spec produced by MarshalJSON.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var js jsonSpec
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*s = Spec{Kind: js.Kind, Sources: js.Sources, Targets: js.Targets, Order: js.Order, Members: js.Members}
	if js.Source != nil {
		s.Source = *js.Source
	}
	if js.Target != nil {
		s.Target = *js.Target
	}
	for _, w := range js.Weights {
		r, err := rat.Parse(w)
		if err != nil {
			return fmt.Errorf("steadystate: spec weight %q: %w", w, err)
		}
		s.Weights = append(s.Weights, r)
	}
	return nil
}

// CanonicalKey returns the spec's canonical serialized form: its compact
// JSON, which emits only the fields the kind uses, in a fixed order. Two
// specs with the same canonical key describe the same collective on any
// platform with the same content hash, so (Platform.ContentHash,
// Spec.CanonicalKey) identifies a solve — the report-cache key of the
// serving layer. Specs of unknown kind have no canonical form and return
// an error.
func (s Spec) CanonicalKey() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// validate checks that every node the spec references exists on the
// platform and that the kind-specific role constraints hold. Deeper
// semantic validation (reachability, duplicates, routers) is delegated to
// the per-kind problem constructors.
func (s Spec) validate(p *Platform) error {
	row, ok := kinds[s.Kind]
	if !ok {
		return fmt.Errorf("steadystate: unknown collective kind %q", s.Kind)
	}
	if len(s.Order) < row.minOrder {
		return fmt.Errorf("steadystate: %s spec: need at least two participants", s.Kind)
	}
	check := func(f field, role string, ids ...NodeID) error {
		for _, id := range ids {
			if row.fields.has(f) && (int(id) < 0 || int(id) >= p.NumNodes()) {
				return fmt.Errorf("steadystate: %s spec: %s references unknown node id %d (platform has %d nodes)",
					s.Kind, role, int(id), p.NumNodes())
			}
		}
		return nil
	}
	if err := cmp.Or(check(fSource, "source", s.Source), check(fSources, "sources", s.Sources...),
		check(fTargets, "targets", s.Targets...), check(fOrder, "order", s.Order...),
		check(fTarget, "target", s.Target)); err != nil {
		return err
	}
	if row.fields.has(fTarget) && !slices.Contains(s.Order, s.Target) {
		return fmt.Errorf("steadystate: %s spec: target %s is not in the participant order",
			s.Kind, p.Node(s.Target).Name)
	}
	if !row.fields.has(fMembers) {
		return nil
	}
	if len(s.Members) == 0 {
		return fmt.Errorf("steadystate: composite spec has no members")
	}
	if s.Weights != nil && len(s.Weights) != len(s.Members) {
		return fmt.Errorf("steadystate: composite spec has %d weights for %d members",
			len(s.Weights), len(s.Members))
	}
	for i, w := range s.Weights {
		if w == nil || w.Sign() <= 0 {
			return fmt.Errorf("steadystate: composite member %d has non-positive weight", i)
		}
	}
	for i, mem := range s.Members {
		if kinds[mem.Kind].expand != nil {
			return fmt.Errorf("steadystate: composite member %d: %s members cannot nest", i, mem.Kind)
		}
		if err := mem.validate(p); err != nil {
			return fmt.Errorf("steadystate: composite member %d: %w", i, err)
		}
	}
	return nil
}

// SolveOption customizes a Solve call.
type SolveOption func(*solveOptions)

type solveOptions struct {
	given       option
	messageSize Rat
	taskTime    func(NodeID, ReduceTask) Rat
	blockSize   Rat
	fixedPeriod *big.Int
	trace       bool
	bases       *BasisCache
}

// sizeOption copies a size option; a nil size becomes zero, so Solve
// rejects it as non-positive.
func sizeOption(size Rat) Rat {
	if size == nil {
		return rat.Zero()
	}
	return rat.Copy(size)
}

// tune applies the reduce-family options to a problem: size (nil: keep
// the constructor's) replaces its sizes, the task time its default.
func (o *solveOptions) tune(f *reduce.Family, size Rat) {
	if size != nil {
		size := rat.Copy(size)
		f.SizeOf = func(ReduceRange) Rat { return size }
	}
	if o.taskTime != nil {
		f.TaskTime = o.taskTime
	}
}

// WithMessageSize sets a uniform partial-result size for reduce, prefix
// and reduce-scatter solves and for a composite's reduce and prefix
// members (the paper's Figure 9 experiment uses size 10). Task times
// derived from node speeds scale with it.
func WithMessageSize(size Rat) SolveOption {
	return func(o *solveOptions) { o.given |= optMessageSize; o.messageSize = sizeOption(size) }
}

// WithTaskTime overrides w(P_i, T), the time for a node to run one merge
// task, for reduce, gather and prefix solves and members.
func WithTaskTime(f func(NodeID, ReduceTask) Rat) SolveOption {
	return func(o *solveOptions) { o.given |= optTaskTime; o.taskTime = f }
}

// WithBlockSize sets the per-participant block size of a gather or of a
// composite's gather members (partial results have size
// (m−k+1)·blockSize). Defaults to 1.
func WithBlockSize(size Rat) SolveOption {
	return func(o *solveOptions) { o.given |= optBlockSize; o.blockSize = sizeOption(size) }
}

// WithFixedPeriod truncates the reduce/gather tree family to the given
// positive period (Section 4.6): Schedule returns the fixed-period
// schedule and Report includes the approximation's throughput and loss.
func WithFixedPeriod(period *big.Int) SolveOption {
	return func(o *solveOptions) {
		o.given |= optFixedPeriod
		// A nil period becomes zero, so Solve rejects it as non-positive.
		o.fixedPeriod = new(big.Int)
		if period != nil {
			o.fixedPeriod.Set(period)
		}
	}
}

// WithTrace records a span-structured trace of the solve — model
// assembly, reachability indexing, simplex phases with pivot-level
// counters, and extraction — and attaches it as Report().Trace. The
// trace's structure and attributes are deterministic (exact counters and
// rational strings); wall-clock measurements are segregated into each
// span's timing block, so traces compare byte-for-byte after
// Trace.WithoutTiming, exactly like SweepReport. Tracing is valid for
// every kind. Without this option the solver runs allocation-free
// through the pivot loop — the instrumentation costs one nil check per
// pivot.
func WithTrace() SolveOption {
	return func(o *solveOptions) { o.trace = true }
}

// WithBasisCache warm-starts the solve from the cache. Solve looks up a
// certified basis of the same problem shape — keyed by node count and the
// spec's canonical key, deliberately coarser than the platform content
// hash so a perturbed platform (cost jitter, speed scaling) still hits —
// and stores its own certified basis back. The LP-level structural
// fingerprint guards safety: a basis from a structurally different model
// (an edge deleted, a row's sense flipped) is rejected and the solve runs
// cold, so warm starts never change any reported rational, only the pivot
// path taken to reach it. Report().WarmStart and lp_warm_pivots_saved
// record the outcome per solve. One cache may serve concurrent solves on
// any platforms. Valid for every kind; a nil cache does nothing.
func WithBasisCache(c *BasisCache) SolveOption {
	return func(o *solveOptions) { o.bases = c }
}

// optionsFor materializes the options and rejects those the kind does not
// take and non-positive sizes and periods, so misuse fails loudly instead
// of being ignored or surfacing later as an unbounded LP. An unknown kind
// is left to validate.
func optionsFor(kind Kind, opts []SolveOption) (*solveOptions, error) {
	o := &solveOptions{blockSize: rat.One()}
	for _, opt := range opts {
		opt(o)
	}
	row, known := kinds[kind]
	if refused := o.given &^ row.options; known && refused != 0 {
		return nil, fmt.Errorf("steadystate: %s is not supported for %s specs",
			optionNames[bits.TrailingZeros8(uint8(refused))], kind)
	}
	if o.messageSize != nil && o.messageSize.Sign() <= 0 {
		return nil, fmt.Errorf("steadystate: WithMessageSize must be positive, got %s", o.messageSize.RatString())
	}
	if o.fixedPeriod != nil && o.fixedPeriod.Sign() <= 0 {
		return nil, fmt.Errorf("steadystate: WithFixedPeriod must be positive, got %s", o.fixedPeriod)
	}
	return o, nil
}

// ErrUnsolvable marks solve failures that are the problem's fault rather
// than the solver's: an invalid spec, bad options, or an impossible
// instance (unreachable target, duplicate participants, …). Callers that
// map solver errors onto fault classes — the serving layer turns these
// into 400s and everything unrecognized into 500s — test with errors.Is.
var ErrUnsolvable = errors.New("steadystate: scenario cannot be solved")

// unsolvableError tags an error with ErrUnsolvable without changing its
// message or breaking the rest of its chain.
type unsolvableError struct{ err error }

func (e *unsolvableError) Error() string        { return e.err.Error() }
func (e *unsolvableError) Unwrap() error        { return e.err }
func (e *unsolvableError) Is(target error) bool { return target == ErrUnsolvable }

// unsolvable wraps validation and construction failures on their way out
// of a solve.
func unsolvable(err error) error {
	if err == nil {
		return nil
	}
	return &unsolvableError{err}
}

// Solution is a solved collective, whatever its kind. All arithmetic is
// exact, and every kind provides every method.
type Solution interface {
	// Kind returns the collective kind that was solved.
	Kind() Kind
	// Spec returns the spec the solution answers.
	Spec() Spec
	// Throughput returns TP, the optimal operations started per time unit.
	Throughput() Rat
	// Period returns the integer schedule period (LCM of denominators).
	Period() *big.Int
	// Schedule builds the concrete periodic schedule achieving TP.
	Schedule() (*Schedule, error)
	// SimModel builds the dynamic model of the buffered periodic protocol.
	SimModel() (*SimModel, error)
	// Report returns the serializable summary of the solution.
	Report() (*Report, error)
	// Verify re-checks the paper's constraints independently of the solver.
	Verify() error
	// Unwrap returns the kind-specific solution (*ScatterSolution,
	// *BroadcastSolution, *GossipSolution, *ReduceSolution,
	// *PrefixSolution, or *CompositeSolution for the composite kinds).
	Unwrap() any
	// String renders the solution as the paper's figures do.
	String() string
}

// Certified is implemented by reduce and gather solutions: Certificate
// exposes the integer application and the weighted reduction-tree family
// proving the throughput (Theorem 1).
type Certified interface {
	Certificate() (*ReduceApplication, []*ReductionTree, error)
}

// BasisCache is an LRU cache of certified simplex bases: the warm-start
// state WithBasisCache hands to Solve. It is safe for concurrent use; a
// nil cache is inert.
type BasisCache = lru.Cache[*lp.Basis]

// NewBasisCache returns a basis cache retaining up to capacity entries
// with least-recently-used eviction. A capacity <= 0 yields a cache
// that stores nothing (useful for disabling warm starts via config).
func NewBasisCache(capacity int) *BasisCache { return lru.New[*lp.Basis](capacity) }

// Solve computes the optimal steady-state throughput of the collective
// described by spec on the platform, together with the machinery to turn
// it into schedules, simulations and reports. It is the single entry
// point for all nine collective kinds; ctx cancels the exact simplex loop
// between pivots. Solve is safe for concurrent use on one platform, which
// must not be mutated meanwhile; the platform memoizes the reachability
// index behind validation and LP pruning, so repeated solves on it build
// that index once. The wall-clock duration of the call is recorded on the
// solution and surfaced as Report().SolveMS, so sweep drivers can
// aggregate solver cost without timing every call themselves.
func Solve(ctx context.Context, p *Platform, spec Spec, opts ...SolveOption) (Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if p == nil {
		return nil, unsolvable(errors.New("steadystate: nil platform"))
	}
	o, err := optionsFor(spec.Kind, opts)
	if err != nil {
		return nil, unsolvable(err)
	}
	// Validate before anything reads the spec: the basis cache keys it
	// with CanonicalKey, which expects a valid spec.
	if err := spec.validate(p); err != nil {
		return nil, unsolvable(err)
	}
	// The tracer roots the span tree around the whole solve, including
	// model assembly.
	var tracer *obs.Tracer
	if o.trace {
		tracer = obs.NewTracer("solve")
		tracer.Root().SetAttr("kind", string(spec.Kind))
		ctx = obs.WithTracer(ctx, tracer)
	}
	// With a basis cache, start the LP from the cached basis for this
	// problem shape (the solve validates it against the structural
	// fingerprint and falls back to cold when it does not fit) and cache
	// the freshly certified basis on the way out.
	var basisKey string
	var cached *lp.Basis
	if o.bases != nil {
		if specKey, err := spec.CanonicalKey(); err == nil {
			basisKey = fmt.Sprintf("%d|%s", p.NumNodes(), specKey)
			cached, _ = o.bases.Get(basisKey)
		}
	}
	sol, lpSol, err := solve(ctx, p, spec, o, cached)
	if err != nil {
		return nil, err
	}
	b := sol.base()
	b.dur = time.Since(start)
	if basisKey != "" {
		o.bases.Put(basisKey, lpSol.Basis())
		b.warmUsed, b.warmReject, b.warmSaved = lpSol.WarmUsed, lpSol.WarmReject, lpSol.WarmPivotsSaved
	}
	if tracer != nil {
		b.trace = tracer.Finish()
	}
	return sol, nil
}

// solve solves a validated spec's members jointly as one shared-capacity
// LP, started from the basis start when non-nil — the single LP path of
// every kind. A base kind is the one-member expansion of itself. It
// returns the solved LP beside the Solution, for its warm-start outcome
// and final basis.
func solve(ctx context.Context, p *Platform, spec Spec, o *solveOptions, start *lp.Basis) (solved, *lp.Solution, error) {
	row := kinds[spec.Kind]
	specs, weights := []Spec{spec}, []Rat(nil)
	if row.expand != nil {
		specs, weights = row.expand(spec)
	}
	members := make([]composite.Member, len(specs))
	for i, ms := range specs {
		pr, err := kinds[ms.Kind].problem(p, ms, o)
		if err != nil {
			if row.expand != nil {
				err = fmt.Errorf("steadystate: %s member %d: %w", spec.Kind, i, err)
			}
			return nil, nil, unsolvable(err)
		}
		members[i] = composite.Member{Weight: rat.One(), Problem: pr}
		if weights != nil {
			members[i].Weight = weights[i]
		}
	}
	cp, err := composite.NewProblem(p, members)
	if err != nil {
		return nil, nil, unsolvable(err)
	}
	cp.StartFrom = start
	sol, err := cp.SolveCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	if row.expand == nil {
		return newSolution(spec, sol.Members[0], sol.Stats, o.fixedPeriod), sol.LP, nil
	}
	return newCompositeSolution(spec, specs, sol), sol.LP, nil
}

// ---------------------------------------------------------------------------
// The Solution implementation

// kindSolution is the surface every kind-specific solution shares
// (*ScatterSolution, *BroadcastSolution, *GossipSolution, *ReduceSolution,
// *PrefixSolution, *CompositeSolution).
type kindSolution interface {
	Throughput() Rat
	Period() *big.Int
	Verify() error
	String() string
}

// solution is the Solution of every kind: the spec it answers, the
// kind-specific solution it wraps with the LP counters of the solve that
// produced it, the per-kind schedule/simulation/report behaviour chosen by
// its constructor, and the telemetry of the Solve call.
type solution struct {
	spec     Spec
	inner    kindSolution
	stats    core.FlowStats
	schedule func() (*Schedule, error)
	simModel func() (*SimModel, error)
	// extend adds the kind-specific fields to a report (nil: none).
	extend func(*Report) error

	// Telemetry of the Solve call: its wall-clock duration, its trace (nil
	// without WithTrace) and its warm-start outcome (zero without a basis
	// cache). Composite members, solved jointly, carry none.
	dur        time.Duration
	trace      *obs.Trace
	warmUsed   bool
	warmReject string
	warmSaved  int
}

// solved is what the solve paths return: a Solution whose telemetry
// Solve fills in once the solve is done.
type solved interface {
	Solution
	base() *solution
}

func (s *solution) base() *solution              { return s }
func (s *solution) Kind() Kind                   { return s.spec.Kind }
func (s *solution) Spec() Spec                   { return s.spec }
func (s *solution) Throughput() Rat              { return s.inner.Throughput() }
func (s *solution) Period() *big.Int             { return s.inner.Period() }
func (s *solution) Schedule() (*Schedule, error) { return s.schedule() }
func (s *solution) SimModel() (*SimModel, error) { return s.simModel() }
func (s *solution) Verify() error                { return s.inner.Verify() }
func (s *solution) Unwrap() any                  { return s.inner }
func (s *solution) String() string               { return s.inner.String() }
func (s *solution) Report() (*Report, error) {
	r := newReport(s.spec.Kind, s.inner.Throughput(), s.inner.Period(), s.stats)
	r.SolveMS = float64(s.dur) / float64(time.Millisecond)
	r.Trace = s.trace
	r.WarmStart, r.WarmReject, r.WarmPivotsSaved = s.warmUsed, s.warmReject, s.warmSaved
	if s.extend != nil {
		if err := s.extend(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newSolution wraps one solved base-kind member — of a plain (one-member)
// solve or of a composite — as the Solution answering spec, with the LP
// counters of the solve. The member schedules itself, the one materializing
// path of every base kind, and replays through its kind's adapter; only a
// reduce or gather part is wrapped in reduceSolution, which adds the tree
// certificate its schedule and report build on. fixed is the
// WithFixedPeriod truncation of a reduce or gather (nil otherwise).
func newSolution(spec Spec, ms *composite.MemberSolution, stats core.FlowStats, fixed *big.Int) solved {
	sol := solution{spec: spec, inner: ms.Part, stats: stats, schedule: ms.Schedule,
		simModel: func() (*SimModel, error) { return kinds[spec.Kind].replay(ms.Part), nil }}
	red, ok := ms.Part.(*ReduceSolution)
	if !ok {
		return &sol
	}
	s := &reduceSolution{solution: sol, sol: red, fixed: fixed}
	s.schedule, s.extend = s.treeSchedule, s.treeReport
	return s
}

// reduceSolution is the Solution of a reduce or gather: it adds the
// Certified capability — the tree family proving the throughput — on
// which its schedule and report build: Schedule serializes the trees (or
// the WithFixedPeriod plan's re-weighted trees), and Report adds the tree
// count and the fixed-period approximation.
type reduceSolution struct {
	solution
	sol   *ReduceSolution
	fixed *big.Int

	once  sync.Once
	app   *ReduceApplication
	trees []*ReductionTree
	plan  *FixedPeriodPlan
	err   error
}

// certify lazily integerizes the solution and extracts its tree family
// (plus the fixed-period plan when requested), caching the result.
func (s *reduceSolution) certify() error {
	s.once.Do(func() {
		s.app = s.sol.Integerize()
		s.trees, s.err = s.app.ExtractTrees()
		if s.err == nil && s.fixed != nil {
			s.plan, s.err = ApproximateFixedPeriod(s.app, s.trees, s.fixed)
		}
	})
	return s.err
}

// Certificate returns the integer application and the reduction-tree
// family certifying the throughput (Theorem 1).
func (s *reduceSolution) Certificate() (*ReduceApplication, []*ReductionTree, error) {
	if err := s.certify(); err != nil {
		return nil, nil, err
	}
	return s.app, s.trees, nil
}

// treeSchedule serializes the tree family — or the fixed-period plan's
// re-weighted trees at its period — into matching slots.
func (s *reduceSolution) treeSchedule() (*Schedule, error) {
	if err := s.certify(); err != nil {
		return nil, err
	}
	if s.plan != nil {
		return ReduceSchedule(s.app, s.plan.Trees, s.plan.Period)
	}
	return ReduceSchedule(s.app, s.trees, nil)
}

// treeReport adds the tree count and the fixed-period approximation.
func (s *reduceSolution) treeReport(r *Report) error {
	if err := s.certify(); err != nil {
		return err
	}
	r.Trees = len(s.trees)
	if s.plan != nil {
		r.FixedPeriod = s.plan.Period.String()
		r.FixedThroughput = s.plan.Throughput.RatString()
		r.FixedLoss = s.plan.Loss.RatString()
	}
	return nil
}

// Concurrent is implemented by composite and reduce-scatter solutions:
// Members exposes each member collective as a full per-kind Solution
// (reduce members additionally implement Certified), solved jointly under
// the shared capacity constraints.
type Concurrent interface {
	Members() []Solution
}

// compositeSolution is the Solution of the composite kinds (composite,
// reducescatter, allreduce): it adds the Concurrent capability. Its
// schedule is the merged periodic schedule — the union of every member's
// transfers over the LCM of the member periods, decomposed into
// one-port-safe matching slots (member i's transfers are labeled
// "op<i>:…").
type compositeSolution struct {
	solution
	memberSpecs []Spec
	sol         *composite.Solution
}

func newCompositeSolution(spec Spec, memberSpecs []Spec, sol *composite.Solution) *compositeSolution {
	s := &compositeSolution{memberSpecs: append([]Spec(nil), memberSpecs...), sol: sol}
	s.solution = solution{spec: spec, inner: sol, stats: sol.Stats,
		schedule: sol.Schedule, simModel: s.mergedSimModel, extend: s.memberReports}
	return s
}

// mergedSimModel returns the merged multi-member model: every member's
// model, scaled to the composite period and namespaced "op<i>:" (matching
// the merged schedule's transfer labels), superposed into one replay. Read
// a member's deliveries with Result.MinDeliveredPrefix(SimMemberPrefix(i));
// per-member submodels remain available via Members()[i].SimModel().
func (s *compositeSolution) mergedSimModel() (*SimModel, error) {
	models := make([]*SimModel, len(s.sol.Members))
	labels := make([]string, len(s.sol.Members))
	for i, ms := range s.sol.Members {
		models[i] = kinds[s.memberSpecs[i].Kind].replay(ms.Part)
		labels[i] = SimMemberPrefix(i)
	}
	return MergeSimModels(s.sol.Problem.Platform, s.sol.Period(), models, labels)
}

// Members returns one Solution per member, in spec order. Member solutions
// answer their own member spec: their Throughput is Weight·TP, and their
// Schedule/Report/Certificate machinery works member-locally.
func (s *compositeSolution) Members() []Solution {
	out := make([]Solution, len(s.sol.Members))
	for i, ms := range s.sol.Members {
		out[i] = newSolution(s.memberSpecs[i], ms, s.sol.Stats, nil)
	}
	return out
}

// memberReports adds one member report per member (throughput Weight·TP
// and the member's own period; tree counts are available through
// Members()[i].(Certified) without the extraction cost here).
func (s *compositeSolution) memberReports(r *Report) error {
	for i, ms := range s.sol.Members {
		mr := newReport(s.memberSpecs[i].Kind, ms.Throughput, ms.Part.Period(), s.sol.Stats)
		mr.Weight = ms.Weight.RatString()
		r.Members = append(r.Members, mr)
	}
	return nil
}
