package topology

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rat"
)

// PaperFig2 returns the toy scatter platform of the paper's Figure 2:
//
//	        Ps
//	   1 /      \ 1
//	   Pa        Pb
//	2/3 |   4/3 /  \ 4/3
//	   P0 <----+    P1
//
// One source Ps sends messages to targets P0 and P1; Pa and Pb forward.
// The optimal steady-state throughput is TP = 1/2 (one scatter every two
// time units), and the optimal solution routes P0's messages over both Pa
// and Pb.
func PaperFig2() (p *graph.Platform, source graph.NodeID, targets []graph.NodeID) {
	p = graph.New()
	ps := p.AddNode("Ps", rat.One())
	pa := p.AddRouter("Pa")
	pb := p.AddRouter("Pb")
	p0 := p.AddNode("P0", rat.One())
	p1 := p.AddNode("P1", rat.One())
	p.AddEdge(ps, pa, rat.One())
	p.AddEdge(ps, pb, rat.One())
	p.AddEdge(pa, p0, rat.New(2, 3))
	p.AddEdge(pb, p0, rat.New(4, 3))
	p.AddEdge(pb, p1, rat.New(4, 3))
	return p, ps, []graph.NodeID{p0, p1}
}

// PaperFig6 returns the toy reduce platform of the paper's Figure 6: three
// processors P0, P1, P2 in a triangle. Every edge used by the optimal
// solution has cost 1; the unused edges out of the target have cost 2 (the
// figure's remaining label). Every processor computes any task in one time
// unit except P0, which runs two tasks per time unit (speed 2 with unit
// message size). The target is P0 and the optimal steady-state throughput
// is TP = 1 (three reduces every three time units).
//
// The participant logical order is (P0, P1, P2): P_i holds v_i.
func PaperFig6() (p *graph.Platform, order []graph.NodeID, target graph.NodeID) {
	p = graph.New()
	p0 := p.AddNode("P0", rat.Int(2))
	p1 := p.AddNode("P1", rat.One())
	p2 := p.AddNode("P2", rat.One())
	p.AddEdge(p0, p1, rat.Int(2))
	p.AddEdge(p0, p2, rat.Int(2))
	p.AddEdge(p1, p0, rat.One())
	p.AddEdge(p1, p2, rat.One())
	p.AddEdge(p2, p0, rat.One())
	p.AddEdge(p2, p1, rat.One())
	return p, []graph.NodeID{p0, p1, p2}, p0
}

// PaperFig9 returns the Tiers-generated platform of the paper's Figure 9:
// 14 nodes, of which 6 (node0–node5) are routers and 8 participate in the
// reduction. The edge set and processor speeds are reproduced exactly from
// the figure; link bandwidths are chosen within the ranges visible in the
// figure (LAN 1000, MAN ≈125–295, WAN ≈2–14; costs are 1/bandwidth), since
// the exact random draws are not recoverable from the published figure.
// Because of this substitution the exact optimum need not equal the
// paper's 2/9; the edge set, the speeds and the message size are the
// paper's.
//
// The returned order lists participants by their logical index 0..7
// (node11, node8, node13, node9, node6, node12, node7, node10), so P_i in
// the reduction is order[i]. The target is node6 (logical index 4). The
// paper reports TP = 2/9 with message size 10 and task time 10/speed.
func PaperFig9() (p *graph.Platform, order []graph.NodeID, target graph.NodeID) {
	p = graph.New()
	var n [14]graph.NodeID
	// Routers node0..node5.
	for i := 0; i <= 5; i++ {
		n[i] = p.AddRouter(nodeName(i))
	}
	speeds := map[int]int64{
		6: 92, 7: 64, 8: 55, 9: 75, 10: 17, 11: 15, 12: 38, 13: 79,
	}
	for i := 6; i <= 13; i++ {
		n[i] = p.AddNode(nodeName(i), rat.Int(speeds[i]))
	}

	link := func(a, b int, bandwidth int64) {
		p.AddLink(n[a], n[b], rat.New(1, bandwidth))
	}
	// WAN core (router–router).
	link(0, 1, 10)
	link(0, 5, 5)
	link(1, 2, 8)
	link(2, 3, 2)
	link(4, 5, 14)
	// MAN / LAN-attachment links (router–participant).
	link(2, 6, 266)
	link(2, 8, 208)
	link(3, 6, 240)
	link(3, 8, 286)
	link(4, 10, 182)
	link(4, 12, 295)
	link(5, 10, 144)
	link(5, 12, 146)
	// LAN-internal links (participant–participant).
	link(6, 7, 1000)
	link(8, 9, 1000)
	link(10, 11, 1000)
	link(12, 13, 1000)

	order = []graph.NodeID{n[11], n[8], n[13], n[9], n[6], n[12], n[7], n[10]}
	return p, order, n[6]
}

// PaperFig9MessageSize is the uniform partial-result size used by the
// paper's Figure 9 experiment.
func PaperFig9MessageSize() rat.Rat { return rat.Int(10) }

func nodeName(i int) string {
	return fmt.Sprintf("node%d", i)
}
