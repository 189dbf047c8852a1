// Package sim executes steady-state plans dynamically, playing the role of
// the paper's experimental validation: it runs the buffered periodic
// protocol of Section 3.4 over a finite horizon and measures the actually
// delivered operations, so that Lemma 1 (no schedule beats TP·K) and
// Propositions 1–3 (the protocol asymptotically reaches TP·K) can be
// checked numerically rather than just symbolically.
//
// The simulator works at period granularity: intra-period one-port
// feasibility is the schedule package's job (matching decomposition);
// what is simulated here is the part the static schedule cannot show —
// pipeline fill, buffer growth, and the start-up losses that make the
// achieved-to-optimal ratio approach 1 only in the limit. Once a period
// repeats its start buffers the rest of the run is known exactly, so Run
// stops stepping there (see Run).
//
// The engine is generic: a Model has typed buffers per node, per-period
// transfer quotas, per-period production rules (reduction tasks), infinite
// sources (initial values), and sinks that count deliveries (optionally up
// to a per-period quota, with the surplus kept buffered for forwarding).
// Adapters in this package build models from every solved kind: one
// adapter, FlowModel, for the forwarding kinds (scatter and gossip flows,
// and broadcast solutions, whose shared carry stream is replayed with
// per-target replication); reduce applications; prefix solutions (quota
// sinks per rank); and — via Merge — composite solutions (reduce-scatter,
// allreduce, arbitrary composites), whose member models are superposed
// over the merged period under per-member commodity namespaces.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/rat"
)

// TypeID identifies a message type within a model ("m_P0", "v[1,6]", …).
type TypeID string

// Transfer is a per-period transfer quota: Count messages of Type moved
// From → To each period (when the sender's buffer allows).
type Transfer struct {
	From, To graph.NodeID
	Type     TypeID
	Count    *big.Int
}

// Rule is a per-period production quota: Count executions per period, each
// consuming one message of every type in Consumes and producing one of
// Produces, on Node. Reduction tasks consume {v[k,l], v[l+1,m]} and
// produce v[k,m].
type Rule struct {
	Node     graph.NodeID
	Consumes []TypeID
	Produces TypeID
	Count    *big.Int
	// order resolves intra-period chains: rules execute in ascending
	// order, so a rule may consume what a lower-ordered rule produced in
	// the same period. Reduce adapters use the result-range length.
	Order int
}

// Endpoint names a (node, type) pair.
type Endpoint struct {
	Node graph.NodeID
	Type TypeID
}

// Model is a complete simulation input.
type Model struct {
	Platform *graph.Platform
	// Period is the plan's period in time units (used only for reporting
	// throughput per time unit).
	Period *big.Int
	// Transfers and Rules define one period of the steady-state plan.
	Transfers []Transfer
	Rules     []Rule
	// Sources have an unlimited supply of their type (message injection
	// at the scatter source; initial values v[i,i] at their owners).
	Sources map[Endpoint]bool
	// Sinks absorb and count their type (scatter targets; the reduce
	// target's final value).
	Sinks map[Endpoint]bool
	// SinkQuota caps a sink's per-period absorption: at period end it
	// drains min(quota, stock) and the surplus stays buffered for
	// forwarding or consumption. Sinks without an entry drain everything.
	// Prefix adapters use quota sinks because each rank both delivers its
	// prefix v[0,i] at rate TP and may keep forwarding it downstream. An
	// endpoint that is both a source and a sink (rank 0's locally owned
	// v[0,0]) must carry a quota; it is credited that quota every period.
	SinkQuota map[Endpoint]*big.Int
}

// Validate checks the model's structural invariants — positive period,
// non-nil non-negative counts, node IDs on the platform, non-empty types,
// and quota consistency — so that Run and RunLatency can reject malformed
// (hand-built or decoded) models with an error instead of panicking.
func (m *Model) Validate() error {
	if m.Platform == nil {
		return fmt.Errorf("sim: model has no platform")
	}
	if m.Period == nil || m.Period.Sign() <= 0 {
		return fmt.Errorf("sim: model period must be positive")
	}
	n := graph.NodeID(m.Platform.NumNodes())
	checkNode := func(id graph.NodeID, what string) error {
		if id < 0 || id >= n {
			return fmt.Errorf("sim: %s node %d outside platform (%d nodes)", what, id, n)
		}
		return nil
	}
	for _, t := range m.Transfers {
		if err := checkNode(t.From, "transfer source"); err != nil {
			return err
		}
		if err := checkNode(t.To, "transfer destination"); err != nil {
			return err
		}
		if t.Type == "" {
			return fmt.Errorf("sim: transfer %d→%d has an empty type", t.From, t.To)
		}
		if t.Count == nil || t.Count.Sign() < 0 {
			return fmt.Errorf("sim: transfer %d→%d of %s has count %v", t.From, t.To, t.Type, t.Count)
		}
	}
	for _, r := range m.Rules {
		if err := checkNode(r.Node, "rule"); err != nil {
			return err
		}
		if r.Produces == "" {
			return fmt.Errorf("sim: rule at node %d produces an empty type", r.Node)
		}
		if len(r.Consumes) == 0 {
			// A consumeless rule would be a free generator; unlimited local
			// supply is what Sources model.
			return fmt.Errorf("sim: rule at node %d producing %s consumes nothing", r.Node, r.Produces)
		}
		seen := make(map[TypeID]bool, len(r.Consumes))
		for _, c := range r.Consumes {
			if c == "" {
				return fmt.Errorf("sim: rule at node %d consumes an empty type", r.Node)
			}
			if seen[c] {
				return fmt.Errorf("sim: rule at node %d consumes %s twice", r.Node, c)
			}
			seen[c] = true
		}
		if r.Count == nil || r.Count.Sign() < 0 {
			return fmt.Errorf("sim: rule at node %d producing %s has count %v", r.Node, r.Produces, r.Count)
		}
	}
	for e := range m.Sources {
		if err := checkNode(e.Node, "source"); err != nil {
			return err
		}
		if m.Sinks[e] && m.SinkQuota[e] == nil {
			return fmt.Errorf("sim: endpoint (%d, %s) is both source and sink but has no sink quota", e.Node, e.Type)
		}
	}
	for e := range m.Sinks {
		if err := checkNode(e.Node, "sink"); err != nil {
			return err
		}
	}
	for e, q := range m.SinkQuota {
		if !m.Sinks[e] {
			return fmt.Errorf("sim: quota on (%d, %s) which is not a sink", e.Node, e.Type)
		}
		if q == nil || q.Sign() < 0 {
			return fmt.Errorf("sim: sink (%d, %s) has quota %v", e.Node, e.Type, q)
		}
	}
	return nil
}

// Result reports a finished run.
type Result struct {
	Periods int
	// Delivered counts absorbed messages per sink.
	Delivered map[Endpoint]*big.Int
	// MaxBuffer is the high-water mark of every non-source buffer.
	MaxBuffer map[Endpoint]*big.Int
	// FirstFullPeriod is the first period (0-based) in which every
	// transfer and rule executed at full quota, or -1 if never — the end
	// of the initialization phase.
	FirstFullPeriod int
	// Steady is the first period (0-based) that ended with the buffers it
	// started with, or -1 if the run ended first. A period's step reads
	// nothing but its start buffers, so every later period repeats it.
	Steady int
	// SteadyDelivered is the per-sink delivery of period Steady, and so of
	// every period after it; nil when Steady is -1.
	SteadyDelivered map[Endpoint]*big.Int
}

// MinDelivered returns the smallest per-sink delivery count — the number
// of complete collective operations finished (an operation is complete
// only when every sink got its message).
func (r *Result) MinDelivered() *big.Int {
	var min *big.Int
	for _, d := range r.Delivered {
		if min == nil || d.Cmp(min) < 0 {
			min = d
		}
	}
	if min == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(min)
}

// MinDeliveredPrefix returns the smallest delivery count over the sinks
// whose type starts with the given prefix — the per-member MinDelivered of
// a merged composite model (pass member i's label, composite.MemberLabel(i),
// as the prefix). It returns 0 when no sink matches.
func (r *Result) MinDeliveredPrefix(prefix string) *big.Int {
	var min *big.Int
	for e, d := range r.Delivered {
		if !strings.HasPrefix(string(e.Type), prefix) {
			continue
		}
		if min == nil || d.Cmp(min) < 0 {
			min = d
		}
	}
	if min == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(min)
}

// Run simulates the model for the given number of periods using the
// Section 3.4 protocol:
//
//   - at each period start, a node ships a type only if its buffered stock
//     covers the period's full outgoing quota of that type (sources always
//     ship);
//   - arrivals are credited after the sends of the period;
//   - rules then run in Order, each up to its quota, limited by available
//     inputs (inputs produced earlier in the same period may be consumed);
//   - sinks drain and count their buffers at period end — all of it, or up
//     to SinkQuota with the surplus kept buffered; a sink that is also a
//     source counts its quota directly (locally owned deliveries).
//
// A period's step is a function of its start buffers alone, so once a
// period p ends with the buffers it started with, every later period
// repeats it exactly: MaxBuffer and FirstFullPeriod are final, and each
// sink delivers the same amount per period. Run stops there, adds
// (periods − 1 − p) times period p's delivery, and records p as Steady;
// the Result is the one a run stepping every period returns. A model whose
// buffers keep changing steps every period.
//
// Run fails on malformed models (Validate) and on internal inconsistencies
// (negative buffers), which would indicate a protocol bug rather than a
// property of the plan.
func Run(m *Model, periods int) (*Result, error) {
	if periods <= 0 {
		return nil, fmt.Errorf("sim: periods must be positive")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	buf := make(map[Endpoint]*big.Int)
	get := func(e Endpoint) *big.Int {
		if buf[e] == nil {
			buf[e] = new(big.Int)
		}
		return buf[e]
	}
	res := &Result{
		Periods:         periods,
		Delivered:       make(map[Endpoint]*big.Int),
		MaxBuffer:       make(map[Endpoint]*big.Int),
		FirstFullPeriod: -1,
		Steady:          -1,
	}
	for e := range m.Sinks {
		res.Delivered[e] = new(big.Int)
	}

	// Per-(node,type) total outgoing quota, for the shipping threshold.
	demand := make(map[Endpoint]*big.Int)
	for _, t := range m.Transfers {
		e := Endpoint{t.From, t.Type}
		if demand[e] == nil {
			demand[e] = new(big.Int)
		}
		demand[e].Add(demand[e], t.Count)
	}

	rules := sortedRules(m.Rules)

	note := func(e Endpoint, v *big.Int) {
		if m.Sources[e] {
			return
		}
		if res.MaxBuffer[e] == nil || v.Cmp(res.MaxBuffer[e]) > 0 {
			res.MaxBuffer[e] = new(big.Int).Set(v)
		}
	}

	start := snapshot(buf)
	for period := 0; period < periods; period++ {
		full := true

		// Shipping decisions from the start-of-period snapshot.
		eligible := make(map[Endpoint]bool)
		for e, d := range demand {
			if m.Sources[e] {
				eligible[e] = true
				continue
			}
			eligible[e] = get(e).Cmp(d) >= 0
			if !eligible[e] {
				full = false
			}
		}

		// Sends, then arrivals.
		type arrival struct {
			e Endpoint
			c *big.Int
		}
		var arrivals []arrival
		for _, t := range m.Transfers {
			from := Endpoint{t.From, t.Type}
			if !eligible[from] {
				continue
			}
			if !m.Sources[from] {
				b := get(from)
				b.Sub(b, t.Count)
				if b.Sign() < 0 {
					return nil, fmt.Errorf("sim: negative buffer at %s for %s",
						m.Platform.Node(t.From).Name, t.Type)
				}
			}
			arrivals = append(arrivals, arrival{Endpoint{t.To, t.Type}, t.Count})
		}
		for _, a := range arrivals {
			if m.Sources[a.e] {
				continue // supply is infinite; discard redundant inflow
			}
			b := get(a.e)
			b.Add(b, a.c)
			note(a.e, b)
		}

		// Rules.
		for _, r := range rules {
			execs := new(big.Int).Set(r.Count)
			for _, c := range r.Consumes {
				e := Endpoint{r.Node, c}
				if m.Sources[e] {
					continue
				}
				if avail := get(e); avail.Cmp(execs) < 0 {
					execs.Set(avail)
				}
			}
			if execs.Sign() < 0 {
				execs.SetInt64(0)
			}
			if execs.Cmp(r.Count) < 0 {
				full = false
			}
			if execs.Sign() == 0 {
				continue
			}
			for _, c := range r.Consumes {
				e := Endpoint{r.Node, c}
				if m.Sources[e] {
					continue
				}
				get(e).Sub(get(e), execs)
			}
			out := Endpoint{r.Node, r.Produces}
			if !m.Sources[out] {
				b := get(out)
				b.Add(b, execs)
				note(out, b)
			}
		}

		// Sinks drain: everything, or up to the sink's per-period quota
		// with the surplus left buffered for forwarding. A sink that is
		// also a source holds unlimited local supply — its buffer is never
		// stocked — so it counts its quota directly.
		drained := make(map[Endpoint]*big.Int, len(m.Sinks))
		for e := range m.Sinks {
			take := new(big.Int)
			drained[e] = take
			if m.Sources[e] {
				take.Set(m.SinkQuota[e])
			} else if b := get(e); b.Sign() > 0 {
				take.Set(b)
				if q, ok := m.SinkQuota[e]; ok && b.Cmp(q) > 0 {
					take.Set(q)
				}
				b.Sub(b, take)
			}
			res.Delivered[e].Add(res.Delivered[e], take)
		}

		if full && res.FirstFullPeriod == -1 {
			res.FirstFullPeriod = period
		}

		// The end buffers are the next period's start: if they equal this
		// period's start, every remaining period repeats this one.
		end := snapshot(buf)
		if sameBuffers(start, end) {
			res.Steady, res.SteadyDelivered = period, drained
			rest := big.NewInt(int64(periods - 1 - period))
			for e, d := range drained {
				res.Delivered[e].Add(res.Delivered[e], new(big.Int).Mul(d, rest))
			}
			break
		}
		start = end
	}
	return res, nil
}

// sortedRules returns the rules in execution order (stable by Order).
func sortedRules(rules []Rule) []Rule {
	out := append([]Rule(nil), rules...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// snapshot copies the nonzero buffers.
func snapshot(buf map[Endpoint]*big.Int) map[Endpoint]*big.Int {
	s := make(map[Endpoint]*big.Int, len(buf))
	for e, b := range buf {
		if b.Sign() != 0 {
			s[e] = new(big.Int).Set(b)
		}
	}
	return s
}

// sameBuffers reports whether two snapshots hold the same buffers.
func sameBuffers(a, b map[Endpoint]*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for e, v := range a {
		if w, ok := b[e]; !ok || v.Cmp(w) != 0 {
			return false
		}
	}
	return true
}

// Throughput returns delivered operations per time unit over the run:
// MinDelivered / (periods · period length).
func (r *Result) Throughput(period *big.Int) rat.Rat {
	total := new(big.Int).Mul(big.NewInt(int64(r.Periods)), period)
	if total.Sign() == 0 {
		return rat.Zero()
	}
	return new(big.Rat).SetFrac(r.MinDelivered(), total)
}

// sortedEndpoints returns the endpoints of a set in canonical
// (node, type) order.
func sortedEndpoints(set map[Endpoint]bool) []Endpoint {
	out := make([]Endpoint, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// Fingerprint returns a hex SHA-256 over a canonical byte encoding of the
// model: the period, the platform size, every transfer and rule in stored
// order, and the source/sink/quota sets in sorted endpoint order. Two
// solves that agree on the fingerprint produce byte-identical replay
// inputs — the anchor for the dense-vs-sparse and warm-vs-cold
// replay-identity pins (the stored transfer/rule order is part of the
// fingerprint on purpose: adapters must emit canonical order).
func (m *Model) Fingerprint() string {
	h := sha256.New()
	nodes := 0
	if m.Platform != nil {
		nodes = m.Platform.NumNodes()
	}
	fmt.Fprintf(h, "period %s nodes %d\n", m.Period, nodes)
	for _, t := range m.Transfers {
		fmt.Fprintf(h, "t %d %d %s %s\n", t.From, t.To, t.Type, t.Count)
	}
	for _, r := range m.Rules {
		fmt.Fprintf(h, "r %d %d %s %s <- %s\n", r.Node, r.Order, r.Produces, r.Count,
			strings.Join(typeStrings(r.Consumes), ","))
	}
	for _, e := range sortedEndpoints(m.Sources) {
		fmt.Fprintf(h, "src %d %s\n", e.Node, e.Type)
	}
	for _, e := range sortedEndpoints(m.Sinks) {
		if q, ok := m.SinkQuota[e]; ok {
			fmt.Fprintf(h, "sink %d %s quota %s\n", e.Node, e.Type, q)
		} else {
			fmt.Fprintf(h, "sink %d %s\n", e.Node, e.Type)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// typeStrings converts a type list for joining.
func typeStrings(ts []TypeID) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(t)
	}
	return out
}
