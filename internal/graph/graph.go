// Package graph models the heterogeneous target platform of the paper: a
// directed edge-weighted graph G = (V, E, c) where each edge e carries the
// time c(e) needed to transfer a unit-size message, and each node may carry
// a compute speed (for reduce operations, the time to run a task is derived
// from the node's speed).
//
// The graph may contain cycles and multiple paths (the LP exploits them:
// in the paper's toy example messages for one target travel along two
// different routes). Edges are directed and c(i,j) need not equal c(j,i);
// the existence of (i,j) does not imply that of (j,i).
package graph

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rat"
)

// NodeID identifies a node within a Platform. IDs are dense indices
// assigned in insertion order.
type NodeID int

// Node is one resource of the platform: a processor (participant in
// collectives, with a compute speed) or a pure router (forwards messages,
// never computes, holds no values).
type Node struct {
	ID   NodeID
	Name string
	// Speed is the computing speed s_i of the node; the paper's Tiers
	// experiment derives task time as size/speed. A nil or zero speed
	// marks a node that cannot compute (router).
	Speed rat.Rat
	// Router marks pure forwarding nodes (white nodes in the paper's
	// Figure 9).
	Router bool
}

// Edge is a directed communication link with cost c(e): the time needed to
// transfer a unit-size message across the link.
type Edge struct {
	From, To NodeID
	Cost     rat.Rat
}

// Platform is the heterogeneous platform graph.
type Platform struct {
	nodes []Node
	// out[i] and in[i] list edge indices ordered by insertion.
	edges []Edge
	out   [][]int
	in    [][]int
	index map[string]NodeID
	// reach memoizes per-source reachability closures. It is held behind a
	// pointer so Platform values stay copyable (UnmarshalJSON replaces *p
	// wholesale) without copying a lock.
	reach *reachCache
}

// reachCache memoizes, per source node, the bitset of nodes reachable by
// directed paths. Problem validation and LP variable pruning perform many
// CanReach queries per solve; on repeated solves over the same platform
// the closure is computed once. The
// cache is safe for concurrent readers and is dropped whenever the
// platform gains a node or an edge.
type reachCache struct {
	mu   sync.RWMutex
	sets map[NodeID][]uint64
}

// New returns an empty platform.
func New() *Platform {
	return &Platform{index: make(map[string]NodeID), reach: &reachCache{}}
}

// invalidateReach drops the memoized closures after a mutation.
func (p *Platform) invalidateReach() {
	p.reach.mu.Lock()
	p.reach.sets = nil
	p.reach.mu.Unlock()
}

// reachSet returns the closure bitset for src, computing and caching it on
// first use.
func (p *Platform) reachSet(src NodeID) []uint64 {
	p.reach.mu.RLock()
	set := p.reach.sets[src]
	p.reach.mu.RUnlock()
	if set != nil {
		return set
	}
	set = p.computeReach(src)
	p.reach.mu.Lock()
	if p.reach.sets == nil {
		p.reach.sets = make(map[NodeID][]uint64, len(p.nodes))
	}
	p.reach.sets[src] = set
	p.reach.mu.Unlock()
	return set
}

// computeReach runs the DFS behind reachSet.
func (p *Platform) computeReach(src NodeID) []uint64 {
	set := make([]uint64, (len(p.nodes)+63)/64)
	set[src>>6] |= 1 << (uint(src) & 63)
	stack := []NodeID{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range p.out[n] {
			t := p.edges[idx].To
			if set[t>>6]&(1<<(uint(t)&63)) == 0 {
				set[t>>6] |= 1 << (uint(t) & 63)
				stack = append(stack, t)
			}
		}
	}
	return set
}

// AddNode adds a computing node with the given name and speed and returns
// its ID. Names must be unique.
func (p *Platform) AddNode(name string, speed rat.Rat) NodeID {
	return p.mustAdd(name, speed, false)
}

// AddRouter adds a pure forwarding node.
func (p *Platform) AddRouter(name string) NodeID {
	return p.mustAdd(name, rat.Zero(), true)
}

// add is the error-returning core of AddNode/AddRouter, shared with the
// unmarshal path (where malformed input must surface as an error, not a
// panic).
func (p *Platform) add(name string, speed rat.Rat, router bool) (NodeID, error) {
	if _, dup := p.index[name]; dup {
		return 0, fmt.Errorf("graph: duplicate node %q", name)
	}
	id := NodeID(len(p.nodes))
	p.nodes = append(p.nodes, Node{ID: id, Name: name, Speed: rat.Copy(speed), Router: router})
	p.out = append(p.out, nil)
	p.in = append(p.in, nil)
	p.index[name] = id
	p.invalidateReach()
	return id, nil
}

func (p *Platform) mustAdd(name string, speed rat.Rat, router bool) NodeID {
	id, err := p.add(name, speed, router)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// AddEdge adds a directed edge from → to with unit-message cost c. Parallel
// duplicate edges and self-loops are rejected: neither occurs in the
// paper's model and both usually indicate builder bugs.
func (p *Platform) AddEdge(from, to NodeID, cost rat.Rat) {
	p.checkNode(from)
	p.checkNode(to)
	if err := p.addEdge(from, to, cost); err != nil {
		panic(err.Error())
	}
}

// addEdge is the error-returning core of AddEdge, shared with the
// unmarshal path.
func (p *Platform) addEdge(from, to NodeID, cost rat.Rat) error {
	if from == to {
		return fmt.Errorf("graph: self-loop on %s", p.nodes[from].Name)
	}
	if cost.Sign() <= 0 {
		return fmt.Errorf("graph: non-positive edge cost %s→%s", p.nodes[from].Name, p.nodes[to].Name)
	}
	if _, ok := p.FindEdge(from, to); ok {
		return fmt.Errorf("graph: duplicate edge %s→%s", p.nodes[from].Name, p.nodes[to].Name)
	}
	idx := len(p.edges)
	p.edges = append(p.edges, Edge{From: from, To: to, Cost: rat.Copy(cost)})
	p.out[from] = append(p.out[from], idx)
	p.in[to] = append(p.in[to], idx)
	p.invalidateReach()
	return nil
}

// AddLink adds the pair of directed edges from↔to, both with cost c — the
// common case of a symmetric physical link.
func (p *Platform) AddLink(a, b NodeID, cost rat.Rat) {
	p.AddEdge(a, b, cost)
	p.AddEdge(b, a, cost)
}

func (p *Platform) checkNode(id NodeID) {
	if !p.HasNode(id) {
		panic(fmt.Sprintf("graph: unknown node %d", id))
	}
}

// HasNode reports whether id names a node of the platform.
func (p *Platform) HasNode(id NodeID) bool { return int(id) >= 0 && int(id) < len(p.nodes) }

// NumNodes returns the number of nodes.
func (p *Platform) NumNodes() int { return len(p.nodes) }

// NumEdges returns the number of directed edges.
func (p *Platform) NumEdges() int { return len(p.edges) }

// Node returns the node with the given ID.
func (p *Platform) Node(id NodeID) Node {
	p.checkNode(id)
	return p.nodes[id]
}

// Nodes returns all nodes in ID order.
func (p *Platform) Nodes() []Node { return append([]Node(nil), p.nodes...) }

// Lookup returns the node with the given name.
func (p *Platform) Lookup(name string) (NodeID, bool) {
	id, ok := p.index[name]
	return id, ok
}

// MustLookup is Lookup that panics when the name is unknown.
func (p *Platform) MustLookup(name string) NodeID {
	id, ok := p.index[name]
	if !ok {
		panic(fmt.Sprintf("graph: unknown node %q", name))
	}
	return id
}

// Edges returns all edges in insertion order.
func (p *Platform) Edges() []Edge { return append([]Edge(nil), p.edges...) }

// OutEdges returns the edges leaving n, in insertion order.
func (p *Platform) OutEdges(n NodeID) []Edge {
	p.checkNode(n)
	out := make([]Edge, len(p.out[n]))
	for i, idx := range p.out[n] {
		out[i] = p.edges[idx]
	}
	return out
}

// InEdges returns the edges entering n, in insertion order.
func (p *Platform) InEdges(n NodeID) []Edge {
	p.checkNode(n)
	in := make([]Edge, len(p.in[n]))
	for i, idx := range p.in[n] {
		in[i] = p.edges[idx]
	}
	return in
}

// FindEdge returns the edge from → to, if present.
func (p *Platform) FindEdge(from, to NodeID) (Edge, bool) {
	if int(from) < 0 || int(from) >= len(p.nodes) {
		return Edge{}, false
	}
	for _, idx := range p.out[from] {
		if p.edges[idx].To == to {
			return p.edges[idx], true
		}
	}
	return Edge{}, false
}

// Cost returns c(from, to); it panics when the edge does not exist.
func (p *Platform) Cost(from, to NodeID) rat.Rat {
	e, ok := p.FindEdge(from, to)
	if !ok {
		panic(fmt.Sprintf("graph: no edge %s→%s", p.nodes[from].Name, p.nodes[to].Name))
	}
	return e.Cost
}

// Participants returns the IDs of all non-router nodes, in ID order.
func (p *Platform) Participants() []NodeID {
	var out []NodeID
	for _, n := range p.nodes {
		if !n.Router {
			out = append(out, n.ID)
		}
	}
	return out
}

// ReachableFrom returns the set of nodes reachable from src by directed
// paths (including src itself), as a sorted slice.
func (p *Platform) ReachableFrom(src NodeID) []NodeID {
	p.checkNode(src)
	set := p.reachSet(src)
	var out []NodeID
	for id := range p.nodes {
		if set[id>>6]&(1<<(uint(id)&63)) != 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// CanReach reports whether there is a directed path from src to dst.
func (p *Platform) CanReach(src, dst NodeID) bool {
	p.checkNode(src)
	p.checkNode(dst)
	set := p.reachSet(src)
	return set[dst>>6]&(1<<(uint(dst)&63)) != 0
}

// Validate checks structural sanity: at least one node, positive costs,
// and (when participants are present) that every pair of participants is
// connected in the underlying directed graph. It returns the first problem
// found.
func (p *Platform) Validate() error {
	if len(p.nodes) == 0 {
		return fmt.Errorf("graph: empty platform")
	}
	for _, e := range p.edges {
		if e.Cost.Sign() <= 0 {
			return fmt.Errorf("graph: edge %s→%s has non-positive cost %s",
				p.nodes[e.From].Name, p.nodes[e.To].Name, e.Cost.RatString())
		}
	}
	parts := p.Participants()
	for _, a := range parts {
		reach := make(map[NodeID]bool)
		for _, n := range p.ReachableFrom(a) {
			reach[n] = true
		}
		for _, b := range parts {
			if a != b && !reach[b] {
				return fmt.Errorf("graph: participant %s cannot reach participant %s",
					p.nodes[a].Name, p.nodes[b].Name)
			}
		}
	}
	return nil
}

// TaskTime returns the time w(P_i, T) for node i to run one reduction task
// over messages of the given size, following the paper's Tiers experiment
// convention: size / speed. It panics for routers or zero-speed nodes.
func (p *Platform) TaskTime(n NodeID, size rat.Rat) rat.Rat {
	node := p.Node(n)
	if node.Router || node.Speed.Sign() <= 0 {
		panic(fmt.Sprintf("graph: node %s cannot compute", node.Name))
	}
	return rat.Div(size, node.Speed)
}

// DOT renders the platform in Graphviz DOT format, with edge costs and
// node speeds as labels. Symmetric edge pairs are rendered as one
// double-headed edge for readability.
func (p *Platform) DOT() string {
	var b strings.Builder
	b.WriteString("digraph platform {\n")
	for _, n := range p.nodes {
		shape := "ellipse"
		label := n.Name
		if n.Router {
			shape = "box"
		} else {
			label = fmt.Sprintf("%s\\nspeed=%s", n.Name, n.Speed.RatString())
		}
		fmt.Fprintf(&b, "  %q [shape=%s,label=%q];\n", n.Name, shape, label)
	}
	done := make(map[[2]NodeID]bool)
	for _, e := range p.edges {
		if done[[2]NodeID{e.From, e.To}] {
			continue
		}
		rev, ok := p.FindEdge(e.To, e.From)
		if ok && rat.Eq(rev.Cost, e.Cost) {
			done[[2]NodeID{e.To, e.From}] = true
			fmt.Fprintf(&b, "  %q -> %q [dir=both,label=%q];\n",
				p.nodes[e.From].Name, p.nodes[e.To].Name, e.Cost.RatString())
		} else {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n",
				p.nodes[e.From].Name, p.nodes[e.To].Name, e.Cost.RatString())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonPlatform is the serialized form.
type jsonPlatform struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name   string `json:"name"`
	Speed  string `json:"speed,omitempty"`
	Router bool   `json:"router,omitempty"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Cost string `json:"cost"`
}

// MarshalJSON serializes the platform with exact rational costs/speeds as
// strings ("3/4"). The output is compact, like every encoding/json
// marshaler — nesting a platform inside another document keeps it
// byte-identical, and writers that want pretty files indent at the edge
// (json.MarshalIndent / json.Indent).
func (p *Platform) MarshalJSON() ([]byte, error) {
	jp := jsonPlatform{}
	for _, n := range p.nodes {
		jn := jsonNode{Name: n.Name, Router: n.Router}
		if !n.Router {
			jn.Speed = n.Speed.RatString()
		}
		jp.Nodes = append(jp.Nodes, jn)
	}
	for _, e := range p.edges {
		jp.Edges = append(jp.Edges, jsonEdge{
			From: p.nodes[e.From].Name,
			To:   p.nodes[e.To].Name,
			Cost: e.Cost.RatString(),
		})
	}
	return json.Marshal(jp)
}

// UnmarshalJSON deserializes a platform produced by MarshalJSON. Malformed
// input — duplicate node names, self-loops, non-positive costs, duplicate
// or dangling edges — is reported as an error, never a panic, so hostile
// scenario files cannot crash the loader.
func (p *Platform) UnmarshalJSON(data []byte) error {
	var jp jsonPlatform
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	*p = *New()
	for _, jn := range jp.Nodes {
		speed := rat.Zero()
		if !jn.Router && jn.Speed != "" {
			s, err := rat.Parse(jn.Speed)
			if err != nil {
				return fmt.Errorf("graph: node %q: %w", jn.Name, err)
			}
			speed = s
		}
		if _, err := p.add(jn.Name, speed, jn.Router); err != nil {
			return err
		}
	}
	for _, je := range jp.Edges {
		from, ok := p.Lookup(je.From)
		if !ok {
			return fmt.Errorf("graph: edge references unknown node %q", je.From)
		}
		to, ok := p.Lookup(je.To)
		if !ok {
			return fmt.Errorf("graph: edge references unknown node %q", je.To)
		}
		cost, err := rat.Parse(je.Cost)
		if err != nil {
			return fmt.Errorf("graph: edge %s→%s: %w", je.From, je.To, err)
		}
		if err := p.addEdge(from, to, cost); err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the platform.
func (p *Platform) String() string {
	names := make([]string, len(p.nodes))
	for i, n := range p.nodes {
		names[i] = n.Name
	}
	sort.Strings(names)
	return fmt.Sprintf("platform{%d nodes, %d edges: %s}", len(p.nodes), len(p.edges), strings.Join(names, ","))
}
