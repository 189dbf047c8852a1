// Golden-file tests: the on-disk platform format must stay stable (the
// fixtures in testdata/ were produced by cmd/topogen) and the canned paper
// platforms must keep serializing to the same structures.
package steadystate_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
)

func loadFixture(t *testing.T, name string) *steadystate.Platform {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	p := steadystate.NewPlatform()
	if err := json.Unmarshal(data, p); err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	return p
}

func TestGoldenFig9Fixture(t *testing.T) {
	p := loadFixture(t, "fig9.json")
	want, _, _ := steadystate.PaperFig9()
	if p.NumNodes() != want.NumNodes() || p.NumEdges() != want.NumEdges() {
		t.Fatalf("fixture drifted: %d/%d nodes, %d/%d edges",
			p.NumNodes(), want.NumNodes(), p.NumEdges(), want.NumEdges())
	}
	// Node-by-node equality: names, speeds, router flags, edge costs.
	for _, n := range want.Nodes() {
		id, ok := p.Lookup(n.Name)
		if !ok {
			t.Fatalf("fixture lost node %s", n.Name)
		}
		got := p.Node(id)
		if got.Router != n.Router || got.Speed.Cmp(n.Speed) != 0 {
			t.Errorf("node %s drifted: router=%v speed=%s", n.Name, got.Router, got.Speed.RatString())
		}
	}
	for _, e := range want.Edges() {
		from := p.MustLookup(want.Node(e.From).Name)
		to := p.MustLookup(want.Node(e.To).Name)
		ge, ok := p.FindEdge(from, to)
		if !ok || ge.Cost.Cmp(e.Cost) != 0 {
			t.Errorf("edge %s→%s drifted", want.Node(e.From).Name, want.Node(e.To).Name)
		}
	}
}

func TestGoldenTiersFixtureSolves(t *testing.T) {
	p := loadFixture(t, "tiers42.json")
	if err := p.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	parts := p.Participants()
	sol := mustSolve(t, p, steadystate.ScatterSpec(parts[0], parts[1:3]...))
	if sol.Throughput().Sign() <= 0 {
		t.Error("fixture scatter TP must be positive")
	}
	// Round trip: marshal and re-parse must preserve solvability.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q := steadystate.NewPlatform()
	if err := json.Unmarshal(data, q); err != nil {
		t.Fatal(err)
	}
	sol2 := mustSolve(t, q, steadystate.ScatterSpec(parts[0], parts[1:3]...))
	if sol.Throughput().Cmp(sol2.Throughput()) != 0 {
		t.Errorf("round trip changed TP: %s vs %s",
			sol.Throughput().RatString(), sol2.Throughput().RatString())
	}
}
