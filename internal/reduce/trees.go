package reduce

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rat"
)

// Application is the integer per-period form of a solution, the object the
// paper calls A: for a period T (the LCM of all denominators), the integer
// number of transfers and tasks of each kind executed per period, and the
// integer number TP·T of reduce operations completed per period.
type Application struct {
	Problem *Problem
	Period  *big.Int
	Sends   map[SendKey]*big.Int
	Tasks   map[TaskKey]*big.Int
	// Ops = TP·Period: operations completed per period.
	Ops *big.Int
}

// Integerize scales the rational solution to the integer application of
// period Period().
func (s *Solution) Integerize() *Application {
	period := s.Period()
	a := &Application{Problem: s.Problem, Period: period, Ops: rat.ScaleToInt(s.TP, period)}
	a.Sends, a.Tasks = s.Counts(period)
	return a
}

// clone deep-copies the application (used so extraction can decrement).
func (a *Application) clone() *Application {
	c := &Application{
		Problem: a.Problem,
		Period:  new(big.Int).Set(a.Period),
		Sends:   make(map[SendKey]*big.Int, len(a.Sends)),
		Tasks:   make(map[TaskKey]*big.Int, len(a.Tasks)),
		Ops:     new(big.Int).Set(a.Ops),
	}
	for k, v := range a.Sends {
		c.Sends[k] = new(big.Int).Set(v)
	}
	for k, v := range a.Tasks {
		c.Tasks[k] = new(big.Int).Set(v)
	}
	return c
}

// TreeNode is one node of a reduction tree: the partial result Range held
// At a platform node, together with how it was obtained.
type TreeNode struct {
	Range Range
	At    graph.NodeID
	// Exactly one of the following shapes holds:
	//   Leaf:     the initial value v[i,i] on its owner (no children).
	//   Compute:  Task merging Left and Right (both At the same node).
	//   Receive:  From holds the same Range at the sending node.
	Kind  NodeKind
	Task  Task      // valid when Kind == Compute
	Left  *TreeNode // compute: left input v[k,l]
	Right *TreeNode // compute: right input v[l+1,m]
	From  *TreeNode // receive: the value at the sender
}

// NodeKind discriminates TreeNode shapes.
type NodeKind int

const (
	// Leaf is an initial value at its owner.
	Leaf NodeKind = iota
	// Compute merges two partial results on one node.
	Compute
	// Receive transfers a partial result between nodes.
	Receive
)

// Tree is one weighted reduction tree of the extracted family: it reduces
// Weight operations per period.
type Tree struct {
	Root   *TreeNode
	Weight *big.Int
}

// ExtractTrees implements EXTRACT_TREES (Figure 8): it greedily peels
// weighted reduction trees off the integer application until the full
// per-period operation count is covered. The returned trees satisfy
// Theorem 1: Σ w(T)·χ_T = A, the tree count is ≤ the number of distinct
// tasks and transfers in A (each extraction zeroes at least one), and
// extraction runs in polynomial time.
func (a *Application) ExtractTrees() ([]*Tree, error) {
	work := a.clone()
	var trees []*Tree
	covered := new(big.Int)
	// Each extraction zeroes at least one entry of A, so the loop is
	// bounded by the number of positive entries (≤ 2n⁴ by the paper's
	// count); add slack for safety against miscounting bugs.
	maxTrees := len(work.Sends) + len(work.Tasks) + 1
	for covered.Cmp(a.Ops) < 0 {
		if len(trees) >= maxTrees {
			return nil, fmt.Errorf("reduce: extraction exceeded %d trees (covered %s of %s); A is inconsistent",
				maxTrees, covered.String(), a.Ops.String())
		}
		root, err := work.findTree()
		if err != nil {
			return nil, err
		}
		w := treeMinCount(work, root)
		remaining := new(big.Int).Sub(a.Ops, covered)
		if w.Cmp(remaining) > 0 {
			w = remaining
		}
		if w.Sign() <= 0 {
			return nil, fmt.Errorf("reduce: extracted tree with non-positive weight")
		}
		work.subtract(root, w)
		trees = append(trees, &Tree{Root: root, Weight: w})
		covered.Add(covered, w)
	}
	return trees, nil
}

// findTree implements FIND_TREE: build one reduction tree rooted at
// (v[0,N], target) using only entries with positive remaining count. The
// paper's greedy choice order is kept: expand by a local computation when
// one is available, otherwise by a transfer. Conservation of A guarantees
// the expansion never gets stuck, and cycle-cancellation of the transfer
// support guarantees termination.
func (a *Application) findTree() (*TreeNode, error) {
	pr := a.Problem
	var build func(r Range, at graph.NodeID, depth int) (*TreeNode, error)
	// Depth guard: a tree has at most N internal compute levels and, with
	// cycle-free transfers, at most |V| consecutive receives per level.
	maxDepth := (pr.N() + 2) * (pr.Platform.NumNodes() + 2)
	build = func(r Range, at graph.NodeID, depth int) (*TreeNode, error) {
		if depth > maxDepth {
			return nil, fmt.Errorf("reduce: FIND_TREE exceeded depth %d at (%s,%s); transfer support has a cycle",
				maxDepth, r, pr.Platform.Node(at).Name)
		}
		if r.IsLeaf() && pr.Order[r.K] == at {
			return &TreeNode{Range: r, At: at, Kind: Leaf}, nil
		}
		// Prefer computing in place (the paper's line 6), smallest l first.
		for l := r.K; l < r.M; l++ {
			t := Task{r.K, l, r.M}
			if c, ok := a.Tasks[TaskKey{at, t}]; ok && c.Sign() > 0 {
				left, err := build(t.Left(), at, depth+1)
				if err != nil {
					return nil, err
				}
				right, err := build(t.Right(), at, depth+1)
				if err != nil {
					return nil, err
				}
				return &TreeNode{Range: r, At: at, Kind: Compute, Task: t, Left: left, Right: right}, nil
			}
		}
		// Otherwise receive from a neighbour with positive transfer count.
		var senders []graph.NodeID
		for _, e := range pr.Platform.InEdges(at) {
			if c, ok := a.Sends[SendKey{e.From, e.To, r}]; ok && c.Sign() > 0 {
				senders = append(senders, e.From)
			}
		}
		sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
		if len(senders) == 0 {
			return nil, fmt.Errorf("reduce: FIND_TREE stuck at (%s, %s): no production, no transfer",
				r, pr.Platform.Node(at).Name)
		}
		from, err := build(r, senders[0], depth+1)
		if err != nil {
			return nil, err
		}
		return &TreeNode{Range: r, At: at, Kind: Receive, From: from}, nil
	}
	return build(Range{0, pr.N()}, pr.Target, 0)
}

// treeMinCount returns min over the tree's actions of the remaining count
// in A — the paper's w(T).
func treeMinCount(a *Application, root *TreeNode) *big.Int {
	var min *big.Int
	walk(root, func(n *TreeNode) {
		var c *big.Int
		switch n.Kind {
		case Compute:
			c = a.Tasks[TaskKey{n.At, n.Task}]
		case Receive:
			c = a.Sends[SendKey{n.From.At, n.At, n.Range}]
		default:
			return
		}
		if min == nil || c.Cmp(min) < 0 {
			min = c
		}
	})
	if min == nil {
		// A tree with no actions: target owns everything (cannot happen
		// with ≥ 2 participants, but fail softly).
		return new(big.Int)
	}
	return new(big.Int).Set(min)
}

// subtract decrements every action of the tree by w.
func (a *Application) subtract(root *TreeNode, w *big.Int) {
	walk(root, func(n *TreeNode) {
		switch n.Kind {
		case Compute:
			k := TaskKey{n.At, n.Task}
			a.Tasks[k].Sub(a.Tasks[k], w)
		case Receive:
			k := SendKey{n.From.At, n.At, n.Range}
			a.Sends[k].Sub(a.Sends[k], w)
		}
	})
}

// walk visits every node of the tree (pre-order).
func walk(n *TreeNode, f func(*TreeNode)) {
	if n == nil {
		return
	}
	f(n)
	walk(n.Left, f)
	walk(n.Right, f)
	walk(n.From, f)
}

// Validate checks Definition 1 on the tree: the root is (v[0,N], target),
// every compute node's inputs cover its range exactly and live on the same
// platform node, every receive crosses an existing edge, and every leaf is
// an initial value on its owner.
func (t *Tree) Validate(pr *Problem) error {
	if t.Root == nil {
		return fmt.Errorf("reduce: empty tree")
	}
	if t.Root.Range != (Range{0, pr.N()}) || t.Root.At != pr.Target {
		return fmt.Errorf("reduce: root is (%s,%s), want (v[0,%d],%s)",
			t.Root.Range, pr.Platform.Node(t.Root.At).Name, pr.N(), pr.Platform.Node(pr.Target).Name)
	}
	var check func(n *TreeNode) error
	check = func(n *TreeNode) error {
		switch n.Kind {
		case Leaf:
			if !n.Range.IsLeaf() {
				return fmt.Errorf("reduce: leaf node with range %s", n.Range)
			}
			if pr.Order[n.Range.K] != n.At {
				return fmt.Errorf("reduce: leaf %s on %s, owner is %s",
					n.Range, pr.Platform.Node(n.At).Name, pr.Platform.Node(pr.Order[n.Range.K]).Name)
			}
			return nil
		case Compute:
			if n.Task.Result() != n.Range {
				return fmt.Errorf("reduce: task %s does not produce %s", n.Task, n.Range)
			}
			if n.Left == nil || n.Right == nil {
				return fmt.Errorf("reduce: compute node %s missing children", n.Range)
			}
			if n.Left.Range != n.Task.Left() || n.Right.Range != n.Task.Right() {
				return fmt.Errorf("reduce: task %s inputs are %s,%s", n.Task, n.Left.Range, n.Right.Range)
			}
			if n.Left.At != n.At || n.Right.At != n.At {
				return fmt.Errorf("reduce: task %s inputs not local to %s", n.Task, pr.Platform.Node(n.At).Name)
			}
			node := pr.Platform.Node(n.At)
			if node.Router || node.Speed.Sign() <= 0 {
				return fmt.Errorf("reduce: task %s on non-computing node %s", n.Task, node.Name)
			}
			if err := check(n.Left); err != nil {
				return err
			}
			return check(n.Right)
		case Receive:
			if n.From == nil {
				return fmt.Errorf("reduce: receive node %s missing source", n.Range)
			}
			if n.From.Range != n.Range {
				return fmt.Errorf("reduce: transfer changes range %s→%s", n.From.Range, n.Range)
			}
			if _, ok := pr.Platform.FindEdge(n.From.At, n.At); !ok {
				return fmt.Errorf("reduce: transfer %s over missing edge %s→%s",
					n.Range, pr.Platform.Node(n.From.At).Name, pr.Platform.Node(n.At).Name)
			}
			return check(n.From)
		}
		return fmt.Errorf("reduce: unknown node kind %d", n.Kind)
	}
	return check(t.Root)
}

// VerifyDecomposition checks Theorem 1's equation Σ w(T)·χ_T = A: summing
// the weighted action counts of the trees reproduces the application
// exactly.
func VerifyDecomposition(a *Application, trees []*Tree) error {
	sends := make(map[SendKey]*big.Int)
	tasks := make(map[TaskKey]*big.Int)
	total := new(big.Int)
	for _, t := range trees {
		total.Add(total, t.Weight)
		walk(t.Root, func(n *TreeNode) {
			switch n.Kind {
			case Compute:
				k := TaskKey{n.At, n.Task}
				if tasks[k] == nil {
					tasks[k] = new(big.Int)
				}
				tasks[k].Add(tasks[k], t.Weight)
			case Receive:
				k := SendKey{n.From.At, n.At, n.Range}
				if sends[k] == nil {
					sends[k] = new(big.Int)
				}
				sends[k].Add(sends[k], t.Weight)
			}
		})
	}
	if total.Cmp(a.Ops) != 0 {
		return fmt.Errorf("reduce: tree weights sum to %s, want %s", total, a.Ops)
	}
	for k, v := range sends {
		av := a.Sends[k]
		if av == nil || v.Cmp(av) > 0 {
			return fmt.Errorf("reduce: trees use send %v %s times, A has %v", k, v, av)
		}
	}
	for k, v := range tasks {
		av := a.Tasks[k]
		if av == nil || v.Cmp(av) > 0 {
			return fmt.Errorf("reduce: trees use task %v %s times, A has %v", k, v, av)
		}
	}
	return nil
}

// Communications lists the transfers of the tree in discovery order, as
// (from, to, range) triples — the input to schedule construction.
func (t *Tree) Communications() []SendKey {
	var out []SendKey
	walk(t.Root, func(n *TreeNode) {
		if n.Kind == Receive {
			out = append(out, SendKey{n.From.At, n.At, n.Range})
		}
	})
	return out
}

// Computations lists the tasks of the tree in discovery order.
func (t *Tree) Computations() []TaskKey {
	var out []TaskKey
	walk(t.Root, func(n *TreeNode) {
		if n.Kind == Compute {
			out = append(out, TaskKey{n.At, n.Task})
		}
	})
	return out
}

// TreeDemand is the load of a tree family on the platform at the given
// period, for schedule.MergeFlows to serialize (Section 4.3): every
// communication of tree ti is one transfer labeled v[k,m]#ti, sized by
// SizeOf, at w(T)/period messages per time unit, and the trees' tasks
// give each node's compute time Σ rate·TaskTime. Computation is not
// serialized (the full-overlap model runs it alongside the transfers).
// The same construction serves fixed-period plans (Section 4.6): pass
// the plan's trees and period.
func (a *Application) TreeDemand(trees []*Tree, period *big.Int) core.Demand {
	per := new(big.Rat).SetInt(period)
	var d core.Demand
	tasks := make(map[TaskKey]rat.Rat)
	for ti, tree := range trees {
		rate := rat.Div(new(big.Rat).SetInt(tree.Weight), per)
		for _, c := range tree.Communications() {
			d.Transfers = append(d.Transfers, core.FlowTransfer{From: c.From, To: c.To,
				Label: fmt.Sprintf("%s#%d", c.R, ti), Size: a.Problem.SizeOf(c.R), Rate: rate})
		}
		for _, tk := range tree.Computations() {
			if tasks[tk] == nil {
				tasks[tk] = rat.Zero()
			}
			tasks[tk].Add(tasks[tk], rate)
		}
	}
	d.ComputeTime = computeTime(tasks, a.Problem.TaskTime)
	return d
}

// String renders the tree in the style of the paper's Figures 11–12.
func (t *Tree) String(pr *Problem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reduction tree (weight %s):\n", t.Weight)
	var render func(n *TreeNode, indent int)
	render = func(n *TreeNode, indent int) {
		pad := strings.Repeat("  ", indent)
		name := pr.Platform.Node(n.At).Name
		switch n.Kind {
		case Leaf:
			fmt.Fprintf(&b, "%s%s at %s (initial value)\n", pad, n.Range, name)
		case Compute:
			fmt.Fprintf(&b, "%scons %s at %s\n", pad, n.Task, name)
			render(n.Left, indent+1)
			render(n.Right, indent+1)
		case Receive:
			fmt.Fprintf(&b, "%stransfer %s: %s -> %s\n", pad, n.Range, pr.Platform.Node(n.From.At).Name, name)
			render(n.From, indent+1)
		}
	}
	render(t.Root, 1)
	return b.String()
}
