// Package baseline implements the comparison strategies a practitioner
// would use without the paper's LP machinery: fixed single-path routing
// for scatters and fixed single reduction trees for reduces. Each baseline
// reports the steady-state throughput its plan achieves under the same
// one-port model, so benchmarks can show where (and by how much) the
// LP-optimal steady-state schedule wins.
//
// These play the role of the related-work algorithms the paper positions
// against (Section 5): makespan-oriented heuristics on fixed trees
// (Banikazemi et al., Liu–Wang reduction trees) evaluated in pipelined
// steady state.
package baseline

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/graph"
	"repro/internal/rat"
	"repro/internal/reduce"
)

// ScatterResult is a baseline scatter plan and its steady-state rate.
type ScatterResult struct {
	// Throughput is the pipelined steady-state throughput of the plan:
	// 1 / (maximum port busy time per operation).
	Throughput rat.Rat
	// Makespan is the completion time of a single non-pipelined
	// operation under the plan (source serializes its sends; relays
	// forward immediately; downstream contention ignored — an optimistic
	// baseline).
	Makespan rat.Rat
	// Routes maps each target to its path from the source.
	Routes map[graph.NodeID][]graph.NodeID
}

// SinglePathScatter routes every target's message along its minimum-cost
// path and pipelines the result: the steady-state throughput is the
// inverse of the busiest port's per-operation time. This is what a static
// routing table achieves, against the LP's multi-route optimum.
func SinglePathScatter(p *graph.Platform, source graph.NodeID, targets []graph.NodeID) (*ScatterResult, error) {
	if p == nil {
		return nil, fmt.Errorf("baseline: nil platform")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("baseline: no targets")
	}
	for _, id := range append([]graph.NodeID{source}, targets...) {
		if !p.HasNode(id) {
			return nil, fmt.Errorf("baseline: node %d is not on the platform", id)
		}
	}
	res := &ScatterResult{Routes: make(map[graph.NodeID][]graph.NodeID)}
	outLoad := make(map[graph.NodeID]rat.Rat)
	inLoad := make(map[graph.NodeID]rat.Rat)
	addLoad := func(m map[graph.NodeID]rat.Rat, n graph.NodeID, v rat.Rat) {
		if m[n] == nil {
			m[n] = rat.Zero()
		}
		m[n].Add(m[n], v)
	}
	type leg struct {
		firstCost rat.Rat
		restCost  rat.Rat
	}
	var legs []leg
	for _, t := range targets {
		path, _, ok := p.ShortestPath(source, t)
		if !ok {
			return nil, fmt.Errorf("baseline: %s unreachable from %s", p.Node(t).Name, p.Node(source).Name)
		}
		res.Routes[t] = path
		rest := rat.Zero()
		var first rat.Rat
		for i := 0; i+1 < len(path); i++ {
			c := p.Cost(path[i], path[i+1])
			addLoad(outLoad, path[i], c)
			addLoad(inLoad, path[i+1], c)
			if i == 0 {
				first = rat.Copy(c)
			} else {
				rest.Add(rest, c)
			}
		}
		legs = append(legs, leg{firstCost: first, restCost: rest})
	}
	// Steady state: inverse of the maximum per-operation port time.
	maxLoad := rat.Zero()
	for _, m := range []map[graph.NodeID]rat.Rat{outLoad, inLoad} {
		for _, v := range m {
			if v.Cmp(maxLoad) > 0 {
				maxLoad = v
			}
		}
	}
	if maxLoad.Sign() == 0 {
		return nil, fmt.Errorf("baseline: degenerate scatter with no communication")
	}
	res.Throughput = rat.Inv(maxLoad)

	// Non-pipelined makespan: send longest-remaining-path first.
	sort.Slice(legs, func(i, j int) bool { return legs[i].restCost.Cmp(legs[j].restCost) > 0 })
	clock := rat.Zero()
	makespan := rat.Zero()
	for _, l := range legs {
		clock = rat.Add(clock, l.firstCost)
		done := rat.Add(clock, l.restCost)
		if done.Cmp(makespan) > 0 {
			makespan = done
		}
	}
	res.Makespan = makespan
	return res, nil
}

// ReduceResult is a baseline reduce plan: a single fixed reduction tree
// (used for every operation) and its steady-state throughput.
type ReduceResult struct {
	Tree       *reduce.Tree
	Throughput rat.Rat
}

// FlatReduceTree builds the flat (left-deep, all-at-target) tree: every
// participant ships its value to the target along its min-cost path and
// the target performs all N merges locally. The classic "gather+reduce".
func FlatReduceTree(pr *reduce.Problem) (*ReduceResult, error) {
	n := pr.N()
	// Left-deep: acc = v[0,0]; for i in 1..N: acc = T[0,i-1,i](acc, v[i,i]).
	acc := leafAt(pr, 0, pr.Target)
	for i := 1; i <= n; i++ {
		right := leafAt(pr, i, pr.Target)
		acc = &reduce.TreeNode{
			Range: reduce.Range{K: 0, M: i},
			At:    pr.Target,
			Kind:  reduce.Compute,
			Task:  reduce.Task{K: 0, L: i - 1, M: i},
			Left:  acc,
			Right: right,
		}
	}
	return finishTree(pr, acc)
}

// BinaryReduceTree builds a balanced merge tree: recursively split the
// range in half, host each merge on the faster of the two sub-results'
// hosts, and ship partial results along min-cost paths. A heterogeneous
// binomial-tree analogue for non-commutative reductions.
func BinaryReduceTree(pr *reduce.Problem) (*ReduceResult, error) {
	var build func(k, m int) *reduce.TreeNode
	build = func(k, m int) *reduce.TreeNode {
		if k == m {
			return &reduce.TreeNode{Range: reduce.Range{K: k, M: k}, At: pr.Order[k], Kind: reduce.Leaf}
		}
		mid := (k + m) / 2
		left := build(k, mid)
		right := build(mid+1, m)
		host := left.At
		if speedOf(pr, right.At).Cmp(speedOf(pr, host)) > 0 {
			host = right.At
		}
		return &reduce.TreeNode{
			Range: reduce.Range{K: k, M: m},
			At:    host,
			Kind:  reduce.Compute,
			Task:  reduce.Task{K: k, L: mid, M: m},
			Left:  moveTo(pr, left, host),
			Right: moveTo(pr, right, host),
		}
	}
	return finishTree(pr, build(0, pr.N()))
}

// leafAt returns v[i,i] delivered to node at (a chain of transfers along
// the min-cost path when at is not the owner).
func leafAt(pr *reduce.Problem, i int, at graph.NodeID) *reduce.TreeNode {
	leaf := &reduce.TreeNode{Range: reduce.Range{K: i, M: i}, At: pr.Order[i], Kind: reduce.Leaf}
	return moveTo(pr, leaf, at)
}

// moveTo extends the tree node with transfer hops along the min-cost path
// from its current location to dst.
func moveTo(pr *reduce.Problem, n *reduce.TreeNode, dst graph.NodeID) *reduce.TreeNode {
	if n.At == dst {
		return n
	}
	path, _ := pr.Platform.MustShortestPath(n.At, dst)
	cur := n
	for i := 1; i < len(path); i++ {
		cur = &reduce.TreeNode{Range: n.Range, At: path[i], Kind: reduce.Receive, From: cur}
	}
	return cur
}

// finishTree ships the root to the target, wraps it as a weight-1 tree,
// validates it and evaluates its steady-state throughput.
func finishTree(pr *reduce.Problem, root *reduce.TreeNode) (*ReduceResult, error) {
	root = moveTo(pr, root, pr.Target)
	tree := &reduce.Tree{Root: root, Weight: big.NewInt(1)}
	if err := tree.Validate(pr); err != nil {
		return nil, fmt.Errorf("baseline: built an invalid tree: %w", err)
	}
	tp, err := TreeThroughput(pr, tree)
	if err != nil {
		return nil, err
	}
	return &ReduceResult{Tree: tree, Throughput: tp}, nil
}

// TreeThroughput evaluates the pipelined steady-state throughput of a
// single fixed reduction tree: every operation replays the tree, so the
// busiest resource (send port, receive port, or compute unit) bounds the
// rate at 1 / (its per-operation busy time).
func TreeThroughput(pr *reduce.Problem, tree *reduce.Tree) (rat.Rat, error) {
	outLoad := make(map[graph.NodeID]rat.Rat)
	inLoad := make(map[graph.NodeID]rat.Rat)
	compLoad := make(map[graph.NodeID]rat.Rat)
	add := func(m map[graph.NodeID]rat.Rat, n graph.NodeID, v rat.Rat) {
		if m[n] == nil {
			m[n] = rat.Zero()
		}
		m[n].Add(m[n], v)
	}
	for _, c := range tree.Communications() {
		t := rat.Mul(pr.SizeOf(c.R), pr.Platform.Cost(c.From, c.To))
		add(outLoad, c.From, t)
		add(inLoad, c.To, t)
	}
	for _, tk := range tree.Computations() {
		add(compLoad, tk.Node, pr.TaskTime(tk.Node, tk.T))
	}
	maxLoad := rat.Zero()
	for _, m := range []map[graph.NodeID]rat.Rat{outLoad, inLoad, compLoad} {
		for _, v := range m {
			if v.Cmp(maxLoad) > 0 {
				maxLoad = v
			}
		}
	}
	if maxLoad.Sign() == 0 {
		return nil, fmt.Errorf("baseline: tree uses no resources")
	}
	return rat.Inv(maxLoad), nil
}

func speedOf(pr *reduce.Problem, n graph.NodeID) rat.Rat {
	return pr.Platform.Node(n).Speed
}
