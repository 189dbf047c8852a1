package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rat"
	"repro/internal/reduce"
)

// FromTrees builds the periodic communication schedule of a reduce
// solution from its extracted reduction-tree family (Section 4.3): for
// every communication task of every tree, one bipartite edge weighted by
// w(T)·size(v[k,m])·c(i,j), decomposed into matchings. Computation is not
// serialized (the full-overlap model lets it run alongside); the per-node
// compute load is recorded on the schedule and checked against the period.
//
// The same construction serves fixed-period plans (Section 4.6): pass the
// plan's trees and period.
func FromTrees(app *reduce.Application, trees []*reduce.Tree, period *big.Int) (*Schedule, error) {
	if period == nil {
		period = app.Period
	}
	p := app.Problem.Platform
	periodRat := new(big.Rat).SetInt(period)

	var transfers []matching.Transfer
	for ti, tree := range trees {
		w := new(big.Rat).SetInt(tree.Weight)
		// Aggregate repeated communications within one tree (cannot occur
		// for valid trees, but cheap to be safe) by listing each once.
		for _, c := range tree.Communications() {
			cost := p.Cost(c.From, c.To)
			unit := rat.Mul(app.Problem.SizeOf(c.R), cost) // time per message
			weight := rat.Mul(w, unit)                     // tree count × time per message
			transfers = append(transfers, matching.Transfer{
				Sender:   int(c.From),
				Receiver: int(c.To),
				Weight:   weight,
				Payload:  payload{label: fmt.Sprintf("%s#%d", c.R, ti), perTime: rat.Inv(unit)},
			})
		}
	}

	computeLoad := make(map[graph.NodeID]rat.Rat)
	for _, tree := range trees {
		w := new(big.Rat).SetInt(tree.Weight)
		for _, tk := range tree.Computations() {
			if computeLoad[tk.Node] == nil {
				computeLoad[tk.Node] = rat.Zero()
			}
			computeLoad[tk.Node].Add(computeLoad[tk.Node],
				rat.Mul(w, app.Problem.TaskTime(tk.Node, tk.T)))
		}
	}

	return assemble(p, periodRat, transfers, computeLoad)
}
