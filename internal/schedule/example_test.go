package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
)

// ExampleMergeFlows turns one solved steady-state stream — here two
// messages per time unit on a half-cost link — into its periodic one-port
// schedule.
func ExampleMergeFlows() {
	p := graph.New()
	a := p.AddNode("a", rat.One())
	b := p.AddNode("b", rat.One())
	p.AddEdge(a, b, rat.New(1, 2))

	member := core.Demand{Transfers: []core.FlowTransfer{
		{From: a, To: b, Label: "m_b", Size: rat.One(), Rate: rat.New(2, 1)},
	}}
	sched, err := MergeFlows(p, big.NewInt(1), []core.Demand{member})
	if err != nil {
		panic(err)
	}
	fmt.Printf("period %s, %d slot(s), busy %s\n",
		sched.Period.RatString(), len(sched.Slots), sched.BusyTime().RatString())
	// Output: period 1, 1 slot(s), busy 1
}
