package topology

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rat"
)

func TestStar(t *testing.T) {
	p := Star(4, rat.One(), rat.One())
	if p.NumNodes() != 5 || p.NumEdges() != 8 {
		t.Errorf("star: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("star invalid: %v", err)
	}
}

func TestChain(t *testing.T) {
	p := Chain(5, rat.One(), rat.One())
	if p.NumNodes() != 5 || p.NumEdges() != 8 {
		t.Errorf("chain: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	for i := range 5 {
		for j := range 5 {
			_, ok := p.FindEdge(graph.NodeID(i), graph.NodeID(j))
			if want := i-j == 1 || j-i == 1; ok != want {
				t.Errorf("chain link %d→%d present %v, want %v", i, j, ok, want)
			}
		}
	}
}

func TestRing(t *testing.T) {
	p := Ring(6, rat.One(), rat.One())
	if p.NumNodes() != 6 || p.NumEdges() != 12 {
		t.Errorf("ring: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	for i := range 6 {
		for j := range 6 {
			_, ok := p.FindEdge(graph.NodeID(i), graph.NodeID(j))
			if want := (i+1)%6 == j || (j+1)%6 == i; ok != want {
				t.Errorf("ring link %d→%d present %v, want %v", i, j, ok, want)
			}
		}
	}
}

func TestRingTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ring(2) did not panic")
		}
	}()
	Ring(2, rat.One(), rat.One())
}

func TestGrid2D(t *testing.T) {
	p := Grid2D(3, 4, rat.One(), rat.One())
	if p.NumNodes() != 12 {
		t.Errorf("grid nodes = %d, want 12", p.NumNodes())
	}
	// Undirected edge count: 3·3 + 2·4 = 17 → 34 directed.
	if p.NumEdges() != 34 {
		t.Errorf("grid edges = %d, want 34", p.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("grid invalid: %v", err)
	}
}

func TestRandomTreeConnectedAndDeterministic(t *testing.T) {
	cfg := DefaultRandomConfig(7)
	p := RandomTree(12, cfg)
	if p.NumNodes() != 12 || p.NumEdges() != 22 {
		t.Errorf("tree: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("tree invalid: %v", err)
	}
	q := RandomTree(12, cfg)
	if p.String() != q.String() {
		t.Error("same seed produced different trees")
	}
	// Deterministic down to edge costs.
	for _, e := range p.Edges() {
		qe, ok := q.FindEdge(e.From, e.To)
		if !ok || !rat.Eq(qe.Cost, e.Cost) {
			t.Fatalf("same seed differs on edge %v", e)
		}
	}
}

func TestRandomConnectedAddsEdges(t *testing.T) {
	cfg := DefaultRandomConfig(11)
	tree := RandomTree(10, cfg)
	p := RandomConnected(10, 0.5, cfg)
	if p.NumEdges() <= tree.NumEdges() {
		t.Errorf("RandomConnected added no edges: %d vs %d", p.NumEdges(), tree.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestTiersStructure(t *testing.T) {
	cfg := DefaultTiersConfig(3)
	p := Tiers(cfg)
	if err := p.Validate(); err != nil {
		t.Fatalf("tiers invalid: %v", err)
	}
	parts := p.Participants()
	if len(parts) != cfg.LANs*cfg.LANNodes {
		t.Errorf("participants = %d, want %d", len(parts), cfg.LANs*cfg.LANNodes)
	}
	// All participants are LAN nodes with positive speed.
	for _, id := range parts {
		n := p.Node(id)
		if n.Speed.Sign() <= 0 {
			t.Errorf("participant %s has speed %s", n.Name, n.Speed.RatString())
		}
	}
	// Deterministic for a seed.
	q := Tiers(cfg)
	if p.String() != q.String() {
		t.Error("same seed produced different tiers platforms")
	}
}

func TestTiersNoMANs(t *testing.T) {
	cfg := DefaultTiersConfig(5)
	cfg.MANs = 0
	p := Tiers(cfg)
	if err := p.Validate(); err != nil {
		t.Fatalf("tiers (no MANs) invalid: %v", err)
	}
}

func TestPaperFig2(t *testing.T) {
	p, source, targets := PaperFig2()
	if p.NumNodes() != 5 || p.NumEdges() != 5 {
		t.Errorf("fig2: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if p.Node(source).Name != "Ps" {
		t.Errorf("source = %s", p.Node(source).Name)
	}
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
	for _, tgt := range targets {
		if !p.CanReach(source, tgt) {
			t.Errorf("source cannot reach %s", p.Node(tgt).Name)
		}
	}
	// The two routes to P0 must both exist (multi-path optimality).
	pa := p.MustLookup("Pa")
	pb := p.MustLookup("Pb")
	p0 := p.MustLookup("P0")
	if _, ok := p.FindEdge(pa, p0); !ok {
		t.Error("missing Pa→P0")
	}
	if _, ok := p.FindEdge(pb, p0); !ok {
		t.Error("missing Pb→P0")
	}
	if !rat.Eq(p.Cost(pa, p0), rat.New(2, 3)) {
		t.Errorf("c(Pa,P0) = %s, want 2/3", p.Cost(pa, p0).RatString())
	}
}

func TestPaperFig6(t *testing.T) {
	p, order, target := PaperFig6()
	if p.NumNodes() != 3 || p.NumEdges() != 6 {
		t.Errorf("fig6: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if len(order) != 3 || order[0] != target {
		t.Errorf("order = %v target = %v", order, target)
	}
	if !rat.Eq(p.Node(target).Speed, rat.Int(2)) {
		t.Errorf("target speed = %s, want 2", p.Node(target).Speed.RatString())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fig6 invalid: %v", err)
	}
}

func TestPaperFig9(t *testing.T) {
	p, order, target := PaperFig9()
	if p.NumNodes() != 14 {
		t.Errorf("fig9 nodes = %d, want 14", p.NumNodes())
	}
	if p.NumEdges() != 34 { // 17 symmetric links
		t.Errorf("fig9 edges = %d, want 34", p.NumEdges())
	}
	if len(order) != 8 {
		t.Fatalf("fig9 participants = %d, want 8", len(order))
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fig9 invalid: %v", err)
	}
	// Speeds from the figure, in logical-index order.
	wantSpeeds := []int64{15, 55, 79, 75, 92, 38, 64, 17}
	for i, id := range order {
		if !rat.Eq(p.Node(id).Speed, rat.Int(wantSpeeds[i])) {
			t.Errorf("speed of index %d (%s) = %s, want %d",
				i, p.Node(id).Name, p.Node(id).Speed.RatString(), wantSpeeds[i])
		}
	}
	// Target is node6, logical index 4.
	if p.Node(target).Name != "node6" || order[4] != target {
		t.Errorf("target = %s (order[4]=%v)", p.Node(target).Name, order[4])
	}
	// Routers are node0..node5.
	for i := 0; i <= 5; i++ {
		id := p.MustLookup(nodeName(i))
		if !p.Node(id).Router {
			t.Errorf("node%d should be a router", i)
		}
	}
	if !rat.Eq(PaperFig9MessageSize(), rat.Int(10)) {
		t.Error("message size should be 10")
	}
	// Paths used by the paper's reduction trees must exist, e.g. the
	// [0,7] route 10→4→12→5→0→1→2→6.
	route := []int{10, 4, 12, 5, 0, 1, 2, 6}
	for i := 0; i+1 < len(route); i++ {
		from := p.MustLookup(nodeName(route[i]))
		to := p.MustLookup(nodeName(route[i+1]))
		if _, ok := p.FindEdge(from, to); !ok {
			t.Errorf("missing edge node%d→node%d from the paper's tree routes", route[i], route[i+1])
		}
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"bad bandwidth": func() {
			cfg := DefaultRandomConfig(1)
			cfg.MinBandwidth = 0
			RandomTree(3, cfg)
		},
		"bad speed": func() {
			cfg := DefaultRandomConfig(1)
			cfg.MaxSpeed = 0
			RandomTree(3, cfg)
		},
		"bad tiers": func() {
			cfg := DefaultTiersConfig(1)
			cfg.LANs = 0
			Tiers(cfg)
		},
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
}
