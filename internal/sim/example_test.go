package sim

import (
	"context"
	"fmt"

	"repro/internal/composite"
	"repro/internal/rat"
	"repro/internal/scatter"
	"repro/internal/topology"
)

// ExampleRun replays the paper's Figure 2 scatter protocol for 100
// periods: the buffered pipeline delivers just under the steady-state
// bound TP·K while the pipeline fills.
func ExampleRun() {
	p, src, targets := topology.PaperFig2()
	pr, err := scatter.NewProblem(p, src, targets)
	if err != nil {
		panic(err)
	}
	cp, err := composite.NewProblem(p, []composite.Member{composite.ScatterMember(pr, rat.One())})
	if err != nil {
		panic(err)
	}
	solved, err := cp.SolveCtx(context.Background())
	if err != nil {
		panic(err)
	}
	sol := solved.Members[0].Scatter
	res, err := Run(ScatterModel(sol), 100)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %s scatters in 100 periods of %s time units\n",
		res.MinDelivered(), sol.Period())
	// Output: delivered 99 scatters in 100 periods of 2 time units
}
