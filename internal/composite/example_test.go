package composite

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/scatter"
)

// ExampleProblem superposes two opposite scatters on a symmetric pair:
// each member rides its own link direction, so the shared one-port rows
// leave both at full rate.
func ExampleProblem() {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddLink(a, b, rat.One())

	ab, err := scatter.NewProblem(p, a, []graph.NodeID{b})
	if err != nil {
		panic(err)
	}
	ba, err := scatter.NewProblem(p, b, []graph.NodeID{a})
	if err != nil {
		panic(err)
	}
	pr, err := NewProblem(p, []Member{
		{Weight: rat.One(), Problem: ab},
		{Weight: rat.One(), Problem: ba},
	})
	if err != nil {
		panic(err)
	}
	sol, err := pr.SolveCtx(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("common TP = %s over %d members\n", sol.Throughput().RatString(), len(sol.Members))
	// Output: common TP = 1 over 2 members
}
