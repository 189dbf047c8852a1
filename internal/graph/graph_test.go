package graph

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rat"
)

// line builds Ps → Pa → P0 with unit costs.
func line(t *testing.T) (*Platform, NodeID, NodeID, NodeID) {
	t.Helper()
	p := New()
	s := p.AddNode("Ps", rat.One())
	a := p.AddRouter("Pa")
	z := p.AddNode("P0", rat.One())
	p.AddEdge(s, a, rat.One())
	p.AddEdge(a, z, rat.One())
	return p, s, a, z
}

func TestAddAndLookup(t *testing.T) {
	p, s, a, z := line(t)
	if p.NumNodes() != 3 || p.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if id, ok := p.Lookup("Pa"); !ok || id != a {
		t.Errorf("Lookup(Pa) = %v, %v", id, ok)
	}
	if p.MustLookup("Ps") != s {
		t.Error("MustLookup(Ps) wrong")
	}
	if !p.Node(a).Router {
		t.Error("Pa should be a router")
	}
	if p.Node(z).Router {
		t.Error("P0 should not be a router")
	}
}

func TestMustLookupPanics(t *testing.T) {
	p, _, _, _ := line(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup(unknown) did not panic")
		}
	}()
	p.MustLookup("nope")
}

func TestDuplicateNodePanics(t *testing.T) {
	p := New()
	p.AddNode("x", rat.One())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	p.AddNode("x", rat.One())
}

func TestEdgeValidation(t *testing.T) {
	p := New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())

	for name, f := range map[string]func(){
		"self-loop":      func() { p.AddEdge(a, a, rat.One()) },
		"zero cost":      func() { p.AddEdge(a, b, rat.Zero()) },
		"negative cost":  func() { p.AddEdge(a, b, rat.Int(-1)) },
		"unknown target": func() { p.AddEdge(a, NodeID(99), rat.One()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}

	p.AddEdge(a, b, rat.One())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate edge did not panic")
			}
		}()
		p.AddEdge(a, b, rat.Int(2))
	}()
}

func TestAddLinkSymmetric(t *testing.T) {
	p := New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.New(3, 2))
	if !rat.Eq(p.Cost(a, b), rat.New(3, 2)) || !rat.Eq(p.Cost(b, a), rat.New(3, 2)) {
		t.Error("AddLink did not create both directions")
	}
}

func TestInOutEdges(t *testing.T) {
	p, s, a, z := line(t)
	if got := p.OutEdges(s); len(got) != 1 || got[0].To != a {
		t.Errorf("OutEdges(Ps) = %v", got)
	}
	if got := p.InEdges(z); len(got) != 1 || got[0].From != a {
		t.Errorf("InEdges(P0) = %v", got)
	}
	if got := p.InEdges(s); len(got) != 0 {
		t.Errorf("InEdges(Ps) = %v, want empty", got)
	}
}

func TestCostPanicsOnMissingEdge(t *testing.T) {
	p, s, _, z := line(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Cost on missing edge did not panic")
		}
	}()
	p.Cost(z, s)
}

func TestReachability(t *testing.T) {
	p, s, a, z := line(t)
	if !p.CanReach(s, z) {
		t.Error("Ps should reach P0")
	}
	if p.CanReach(z, s) {
		t.Error("P0 should not reach Ps (directed)")
	}
	reach := p.ReachableFrom(s)
	if len(reach) != 3 {
		t.Errorf("ReachableFrom(Ps) = %v, want all 3", reach)
	}
	_ = a
}

func TestParticipants(t *testing.T) {
	p, s, _, z := line(t)
	parts := p.Participants()
	if len(parts) != 2 || parts[0] != s || parts[1] != z {
		t.Errorf("Participants = %v", parts)
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty platform should fail validation")
	}

	p, _, _, _ := line(t)
	// Ps cannot be reached from P0 → participants not mutually connected.
	if err := p.Validate(); err == nil {
		t.Error("one-way platform should fail participant connectivity")
	}

	q := New()
	a := q.AddNode("a", rat.One())
	b := q.AddNode("b", rat.One())
	q.AddLink(a, b, rat.One())
	if err := q.Validate(); err != nil {
		t.Errorf("symmetric platform should validate: %v", err)
	}
}

func TestTaskTime(t *testing.T) {
	p := New()
	fast := p.AddNode("fast", rat.Int(4))
	r := p.AddRouter("r")
	if got := p.TaskTime(fast, rat.Int(10)); !rat.Eq(got, rat.New(5, 2)) {
		t.Errorf("TaskTime = %s, want 5/2", got.RatString())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TaskTime on router did not panic")
		}
	}()
	p.TaskTime(r, rat.One())
}

func TestJSONRoundTrip(t *testing.T) {
	p := New()
	s := p.AddNode("Ps", rat.New(7, 2))
	r := p.AddRouter("R")
	d := p.AddNode("Pd", rat.Int(3))
	p.AddEdge(s, r, rat.New(2, 3))
	p.AddLink(r, d, rat.One())

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var q Platform
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.NumNodes() != 3 || q.NumEdges() != 3 {
		t.Fatalf("round trip: %d nodes %d edges", q.NumNodes(), q.NumEdges())
	}
	qs := q.MustLookup("Ps")
	if !rat.Eq(q.Node(qs).Speed, rat.New(7, 2)) {
		t.Errorf("speed lost in round trip: %s", q.Node(qs).Speed.RatString())
	}
	qr := q.MustLookup("R")
	if !q.Node(qr).Router {
		t.Error("router flag lost")
	}
	e, ok := q.FindEdge(qs, qr)
	if !ok || !rat.Eq(e.Cost, rat.New(2, 3)) {
		t.Errorf("edge cost lost: %v %v", e, ok)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	// Every malformed input must come back as an error, never a panic —
	// scenario files are untrusted input to cmd/sscollect and
	// cmd/paperbench.
	cases := []struct {
		name string
		in   string
	}{
		{"unknown edge target", `{"nodes":[{"name":"a"}],"edges":[{"from":"a","to":"zzz","cost":"1"}]}`},
		{"unknown edge source", `{"nodes":[{"name":"a"}],"edges":[{"from":"zzz","to":"a","cost":"1"}]}`},
		{"bad speed", `{"nodes":[{"name":"a","speed":"x"}],"edges":[]}`},
		{"bad cost", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","cost":"bad"}]}`},
		{"not json", `not json`},
		{"duplicate node", `{"nodes":[{"name":"a"},{"name":"a"}],"edges":[]}`},
		{"duplicate router", `{"nodes":[{"name":"a","router":true},{"name":"a","router":true}],"edges":[]}`},
		{"self-loop", `{"nodes":[{"name":"a"}],"edges":[{"from":"a","to":"a","cost":"1"}]}`},
		{"zero cost", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","cost":"0"}]}`},
		{"negative cost", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","cost":"-1/2"}]}`},
		{"duplicate edge", `{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","cost":"1"},{"from":"a","to":"b","cost":"2"}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("unmarshal panicked: %v", r)
				}
			}()
			var p Platform
			if err := json.Unmarshal([]byte(c.in), &p); err == nil {
				t.Errorf("unmarshal %q should fail", c.in)
			}
		})
	}
}

func TestMarshalCompactAndNestedAgree(t *testing.T) {
	// MarshalJSON must emit compact JSON so that top-level marshaling and
	// nesting inside a wrapper document produce the same bytes (a custom
	// marshaler returning indented output gets re-compacted by
	// encoding/json when nested, and double-indented by wrappers).
	p := New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.Int(2))
	p.AddLink(a, b, rat.New(1, 3))

	direct, err := p.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	top, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if string(direct) != string(top) {
		t.Errorf("direct MarshalJSON and json.Marshal disagree:\n%s\nvs\n%s", direct, top)
	}
	nested, err := json.Marshal(struct {
		P *Platform `json:"p"`
	}{p})
	if err != nil {
		t.Fatalf("nested marshal: %v", err)
	}
	want := `{"p":` + string(top) + `}`
	if string(nested) != want {
		t.Errorf("nested serialization disagrees with top-level:\n%s\nvs\n%s", nested, want)
	}
}

func TestDOT(t *testing.T) {
	p := New()
	a := p.AddNode("a", rat.One())
	b := p.AddRouter("b")
	c := p.AddNode("c", rat.Int(2))
	p.AddLink(a, b, rat.One())
	p.AddEdge(b, c, rat.New(1, 2))
	dot := p.DOT()
	for _, want := range []string{"digraph", `"a"`, `"b"`, "dir=both", `"1/2"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestString(t *testing.T) {
	p, _, _, _ := line(t)
	s := p.String()
	if !strings.Contains(s, "3 nodes") || !strings.Contains(s, "2 edges") {
		t.Errorf("String = %q", s)
	}
}

func TestReachabilityCacheInvalidation(t *testing.T) {
	p := New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	c := p.AddNode("c", rat.One())
	p.AddEdge(a, b, rat.One())
	for _, n := range []NodeID{a, b, c} {
		p.ReachableFrom(n) // warm every closure, then mutate under it
	}
	if !p.CanReach(a, b) || p.CanReach(a, c) {
		t.Fatal("wrong reachability before mutation")
	}
	p.AddEdge(b, c, rat.One())
	if !p.CanReach(a, c) {
		t.Error("AddEdge did not invalidate the cached closure")
	}
	d := p.AddNode("d", rat.One())
	if p.CanReach(a, d) {
		t.Error("new node reported reachable")
	}
	p.AddEdge(c, d, rat.One())
	if !p.CanReach(a, d) {
		t.Error("closure not recomputed after growth")
	}
	if got := p.ReachableFrom(a); len(got) != 4 {
		t.Errorf("ReachableFrom(a) = %v, want all 4 nodes", got)
	}
}
