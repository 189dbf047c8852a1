package steadystate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	steadystate "repro"
)

// FuzzUnmarshalScenario hardens the Scenario decoder — the parse path
// every sweep job goes through — against hostile input: whatever the
// bytes, Unmarshal must either produce a scenario or return an error,
// never panic. Accepted scenarios must survive a marshal/unmarshal round
// trip bit-identically, so a sweep can re-serialize what it loaded.
func FuzzUnmarshalScenario(f *testing.F) {
	// Real fixtures seed the corpus with structurally valid scenarios.
	for _, name := range []string{
		"sweep/fig6-reduce.json", "sweep/fig9-reduce.json",
		"sweep/tiers42-scatter.json", "sweep/bad-truncated.json",
	} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data)
		}
	}
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"platform": null}`,
		`{"platform": {}}`,
		`{"platform": {"nodes": [{"name": "a"}, {"name": "a"}]}}`,
		`{"platform": {"nodes": [{"name": "a", "speed": "1/0"}]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}], "edges": [{"from":"a","to":"b","cost":"-1"}]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "scatter", "source": 99}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "composite", "members": [], "weights": ["1/0"]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "nope"}}`,
		// One spec per remaining kind, each with a field its kind ignores,
		// so the fixed point covers every kind's serialization.
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "broadcast", "source": 0, "targets": [1], "order": [0, 1]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "gossip", "sources": [0], "targets": [1], "target": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "gather", "order": [0, 1], "target": 0, "source": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "prefix", "order": [0, 1], "targets": [1]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "reducescatter", "order": [1, 0], "target": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "allreduce", "order": [0, 1], "sources": [0]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "composite", "order": [0], ` +
			`"members": [{"kind": "scatter", "source": 0, "targets": [1]}, {"kind": "reduce", "order": [0, 1], "target": 1}], "weights": ["1", "2/3"]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": 7}`,
		`{"spec": {"kind": "scatter"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc steadystate.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			return
		}
		if sc.Platform == nil {
			t.Fatalf("accepted scenario has nil platform: %q", data)
		}
		// Round trip: what the decoder accepts, the encoder must
		// reproduce exactly (compact form — writers own indentation).
		out, err := json.Marshal(&sc)
		if err != nil {
			// Unknown spec kinds decode structurally but refuse to
			// re-marshal; that is a documented, non-panicking outcome.
			return
		}
		var sc2 steadystate.Scenario
		if err := json.Unmarshal(out, &sc2); err != nil {
			t.Fatalf("re-marshaled scenario does not re-parse: %v\n%s", err, out)
		}
		out2, err := json.Marshal(&sc2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
	})
}

// fuzzValues is the table FuzzSolve draws node speeds, edge costs and
// composite weights from; it holds every speed and cost of Fig. 2 and
// Fig. 6.
var fuzzValues = []string{"1", "2", "2/3", "4/3", "1/2", "3", "5/4"}

// fuzzKinds lists the nine kinds in the order a kind byte picks them.
var fuzzKinds = []steadystate.Kind{
	steadystate.KindScatter, steadystate.KindBroadcast, steadystate.KindGossip,
	steadystate.KindReduce, steadystate.KindGather, steadystate.KindPrefix,
	steadystate.KindReduceScatter, steadystate.KindAllreduce, steadystate.KindComposite,
}

// solveBytes reads a FuzzSolve input one byte at a time; past the end it
// reads 0.
type solveBytes struct {
	data []byte
	n    int // the platform's node count, once read
}

func (b *solveBytes) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return c
}

// value draws an entry of fuzzValues, or nil when the byte picks slot 0.
func (b *solveBytes) value() steadystate.Rat {
	i := int(b.next()) % (len(fuzzValues) + 1)
	if i == 0 {
		return nil
	}
	r, _ := steadystate.ParseRat(fuzzValues[i-1])
	return r
}

func (b *solveBytes) node() steadystate.NodeID { return steadystate.NodeID(int(b.next()) % b.n) }

// nodes draws a list of at most limit node IDs, repeats allowed.
func (b *solveBytes) nodes(limit int) []steadystate.NodeID {
	ids := make([]steadystate.NodeID, int(b.next())%(limit+1))
	for i := range ids {
		ids[i] = b.node()
	}
	return ids
}

// spec draws a spec whose lists hold at most limit nodes; a composite
// kind holds at most 3, and only a top-level composite draws members (at
// most 3, of any kind) and weights (at most 3, a nil one allowed).
func (b *solveBytes) spec(limit int, top bool) steadystate.Spec {
	kind := fuzzKinds[int(b.next())%len(fuzzKinds)]
	switch kind {
	case steadystate.KindReduceScatter, steadystate.KindAllreduce, steadystate.KindComposite:
		limit = min(limit, 3)
	}
	s := steadystate.Spec{Kind: kind, Source: b.node(), Sources: b.nodes(limit),
		Targets: b.nodes(limit), Order: b.nodes(limit), Target: b.node()}
	if kind != steadystate.KindComposite || !top {
		return s
	}
	for range int(b.next()) % 4 {
		s.Members = append(s.Members, b.spec(limit, false))
	}
	for range int(b.next()) % 4 {
		s.Weights = append(s.Weights, b.value())
	}
	return s
}

// decodeSolveInput builds a platform of 2–5 nodes and a spec from fuzz
// bytes: the node count, a byte per node (slot 0 makes a router, the rest
// pick a speed), a byte per ordered node pair (slot 0 adds no edge, the
// rest pick a cost), then the spec — a kind byte, the source, the
// sources, targets and order lists (a length byte, then a byte per node),
// the target, and for a composite its members and weights.
func decodeSolveInput(data []byte) (*steadystate.Platform, steadystate.Spec) {
	b := &solveBytes{data: data}
	b.n = 2 + int(b.next())%4
	p := steadystate.NewPlatform()
	for i := range b.n {
		if speed := b.value(); speed != nil {
			p.AddNode(fmt.Sprintf("n%d", i), speed)
		} else {
			p.AddRouter(fmt.Sprintf("n%d", i))
		}
	}
	for from := range b.n {
		for to := range b.n {
			if from == to {
				continue
			}
			if cost := b.value(); cost != nil {
				p.AddEdge(steadystate.NodeID(from), steadystate.NodeID(to), cost)
			}
		}
	}
	return p, b.spec(b.n, true)
}

// encodeSolveInput is the inverse of decodeSolveInput for the seed
// corpus: every speed, cost and weight must be an entry of fuzzValues.
func encodeSolveInput(tb testing.TB, p *steadystate.Platform, spec steadystate.Spec) []byte {
	tb.Helper()
	value := func(r steadystate.Rat) byte {
		if r == nil {
			return 0
		}
		for i, v := range fuzzValues {
			if w, _ := steadystate.ParseRat(v); w.Cmp(r) == 0 {
				return byte(i + 1)
			}
		}
		tb.Fatalf("value %s is not in fuzzValues", r.RatString())
		return 0
	}
	n := p.NumNodes()
	out := []byte{byte(n - 2)}
	for _, node := range p.Nodes() {
		if node.Router {
			out = append(out, 0)
		} else {
			out = append(out, value(node.Speed))
		}
	}
	for from := range n {
		for to := range n {
			if from == to {
				continue
			}
			e, ok := p.FindEdge(steadystate.NodeID(from), steadystate.NodeID(to))
			if !ok {
				out = append(out, 0)
				continue
			}
			out = append(out, value(e.Cost))
		}
	}
	var encode func(s steadystate.Spec)
	nodes := func(ids []steadystate.NodeID) {
		out = append(out, byte(len(ids)))
		for _, id := range ids {
			out = append(out, byte(id))
		}
	}
	encode = func(s steadystate.Spec) {
		out = append(out, byte(slices.Index(fuzzKinds, s.Kind)), byte(s.Source))
		nodes(s.Sources)
		nodes(s.Targets)
		nodes(s.Order)
		out = append(out, byte(s.Target))
		if s.Kind != steadystate.KindComposite {
			return
		}
		out = append(out, byte(len(s.Members)))
		for _, m := range s.Members {
			encode(m)
		}
		out = append(out, byte(len(s.Weights)))
		for _, w := range s.Weights {
			out = append(out, value(w))
		}
	}
	encode(spec)
	return out
}

// FuzzSolve drives Solve with small platforms and specs of every kind.
// Each input is solved cold, then twice through one fresh basis cache, so
// the last solve is offered the basis of the one before. Either all three
// fail with an error tagged ErrUnsolvable, or all three return the same
// throughput and the cold solution passes Verify, its schedule passes its
// own Verify, and a 1000-period replay holds every Lemma-1 window.
func FuzzSolve(f *testing.F) {
	fig2, src, targets := steadystate.PaperFig2()
	fig6, order, target := steadystate.PaperFig6()
	for _, c := range []struct {
		p     *steadystate.Platform
		parts []steadystate.NodeID
	}{
		{fig2, append([]steadystate.NodeID{src}, targets...)},
		{fig6, order},
	} {
		parts := c.parts
		for _, spec := range []steadystate.Spec{
			steadystate.ScatterSpec(parts[0], parts[1:]...),
			steadystate.BroadcastSpec(parts[0], parts[1:]...),
			steadystate.GossipSpec(parts, parts),
			steadystate.ReduceSpec(parts, parts[0]),
			steadystate.GatherSpec(parts, parts[0]),
			steadystate.PrefixSpec(parts...),
			steadystate.ReduceScatterSpec(parts...),
			steadystate.AllreduceSpec(parts...),
			steadystate.CompositeSpec([]steadystate.Spec{
				steadystate.ScatterSpec(parts[0], parts[1:]...),
				steadystate.ReduceSpec(parts, parts[0]),
			}, []steadystate.Rat{steadystate.R(1, 1), steadystate.R(2, 3)}),
		} {
			f.Add(encodeSolveInput(f, c.p, spec))
		}
	}
	// A nil composite weight once panicked in the basis cache's key.
	f.Add(encodeSolveInput(f, fig6, steadystate.CompositeSpec(
		[]steadystate.Spec{steadystate.ReduceSpec(order, target)}, []steadystate.Rat{nil})))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, spec := decodeSolveInput(data)
		ctx := context.Background()
		cold, coldErr := steadystate.Solve(ctx, p, spec)
		bases := steadystate.WithBasisCache(steadystate.NewBasisCache(2))
		first, firstErr := steadystate.Solve(ctx, p, spec, bases)
		second, secondErr := steadystate.Solve(ctx, p, spec, bases)
		if coldErr != nil || firstErr != nil || secondErr != nil {
			for _, err := range []error{coldErr, firstErr, secondErr} {
				if !errors.Is(err, steadystate.ErrUnsolvable) {
					t.Fatalf("want all three solves unsolvable, got cold %v, first %v, second %v",
						coldErr, firstErr, secondErr)
				}
			}
			return
		}
		tp := cold.Throughput()
		if first.Throughput().Cmp(tp) != 0 || second.Throughput().Cmp(tp) != 0 {
			t.Fatalf("throughputs differ: cold %s, first %s, second %s",
				tp.RatString(), first.Throughput().RatString(), second.Throughput().RatString())
		}
		if err := cold.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		sched, err := cold.Schedule()
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := sched.Verify(); err != nil {
			t.Fatalf("Schedule().Verify: %v", err)
		}
		check, err := steadystate.CheckReplay(cold, 1000)
		if err != nil {
			t.Fatalf("CheckReplay: %v", err)
		}
		if err := check.Err(); err != nil {
			t.Fatalf("replay: %v", err)
		}
	})
}
