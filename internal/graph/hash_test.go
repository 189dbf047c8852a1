package graph

import (
	"encoding/json"
	"testing"

	"repro/internal/rat"
)

// twoNodePlatform builds src→dst with one link, the smallest platform the
// hash tests need.
func twoNodePlatform(t *testing.T) *Platform {
	t.Helper()
	p := New()
	src := p.AddNode("src", rat.New(1, 1))
	dst := p.AddNode("dst", rat.New(2, 3))
	p.AddEdge(src, dst, rat.New(1, 4))
	return p
}

func TestContentHashStableAcrossFieldOrder(t *testing.T) {
	// The same platform serialized with JSON object fields in different
	// orders (and different whitespace) must decode to the same canonical
	// form and therefore the same hash.
	doc1 := `{"nodes":[{"name":"src","speed":"1"},{"name":"dst","speed":"2/3"}],` +
		`"edges":[{"from":"src","to":"dst","cost":"1/4"}]}`
	doc2 := `{
		"edges": [ {"cost": "1/4", "to": "dst", "from": "src"} ],
		"nodes": [ {"speed": "1", "name": "src"}, {"router": false, "speed": "2/3", "name": "dst"} ]
	}`
	p1, p2 := New(), New()
	if err := json.Unmarshal([]byte(doc1), p1); err != nil {
		t.Fatalf("unmarshal doc1: %v", err)
	}
	if err := json.Unmarshal([]byte(doc2), p2); err != nil {
		t.Fatalf("unmarshal doc2: %v", err)
	}
	h1, err := p1.ContentHash()
	if err != nil {
		t.Fatalf("hash p1: %v", err)
	}
	h2, err := p2.ContentHash()
	if err != nil {
		t.Fatalf("hash p2: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("hashes differ across field order: %x vs %x", h1, h2)
	}

	// And the built-in-memory platform with the same content agrees too.
	h3, err := twoNodePlatform(t).ContentHash()
	if err != nil {
		t.Fatalf("hash built platform: %v", err)
	}
	if h1 != h3 {
		t.Fatalf("decoded and built platforms hash differently: %x vs %x", h1, h3)
	}
}

func TestContentHashDistinguishesContent(t *testing.T) {
	base, err := twoNodePlatform(t).ContentHash()
	if err != nil {
		t.Fatal(err)
	}

	// Different edge cost.
	p := New()
	src := p.AddNode("src", rat.New(1, 1))
	dst := p.AddNode("dst", rat.New(2, 3))
	p.AddEdge(src, dst, rat.New(1, 5))
	h, err := p.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h == base {
		t.Fatal("platforms with different edge costs hash equally")
	}

	// Different node insertion order: IDs shift, so specs are not
	// interchangeable and the hash must differ.
	q := New()
	qd := q.AddNode("dst", rat.New(2, 3))
	qs := q.AddNode("src", rat.New(1, 1))
	q.AddEdge(qs, qd, rat.New(1, 4))
	h, err = q.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h == base {
		t.Fatal("platforms with different node insertion order hash equally")
	}
}

func TestContentHashRoundTrip(t *testing.T) {
	// Marshal → unmarshal must preserve the hash (the identity contract
	// of sweep's platform count and serve's report cache).
	p := twoNodePlatform(t)
	before, err := p.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q := New()
	if err := json.Unmarshal(data, q); err != nil {
		t.Fatal(err)
	}
	after, err := q.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("hash changed across JSON round trip: %x vs %x", before, after)
	}
}

func TestContentHashNilPlatform(t *testing.T) {
	var p *Platform
	if _, err := p.ContentHash(); err == nil {
		t.Fatal("nil platform hashed without error")
	}
}
