package callgraph

import "fmt"

// SCC computes the strongly connected components of the graph with Tarjan's
// algorithm (iterative, so deep graphs do not overflow the goroutine stack).
// It returns a slice mapping NodeID -> component number. Components are
// numbered in reverse topological order of the condensation (a callee's
// component number is never greater than its caller's... specifically,
// Tarjan emits components in reverse topological order, so component numbers
// increase from leaves toward the entry).
func (g *Graph) SCC() []int {
	n := len(g.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []NodeID
	var next int32
	var ncomp int

	type frame struct {
		v  NodeID
		ei int // next out-edge index to consider
	}
	var call []frame

	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		call = append(call[:0], frame{v: NodeID(start)})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, NodeID(start))
		onStack[start] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			out := g.rows[v].out
			advanced := false
			for f.ei < len(out) {
				w := out[f.ei].Callee
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				u := call[len(call)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return comp
}

// RecursiveEdges returns the set of edges that participate in recursion:
// an edge is recursive iff its endpoints are in the same strongly connected
// component (which covers self-loops as a special case). Removing these
// edges leaves an acyclic graph. Section 2 of the paper: "a recursive call
// path is divided into acyclic sub-paths, each of which is encoded
// separately"; these are exactly the edges at which the division happens.
func (g *Graph) RecursiveEdges() map[Edge]bool {
	comp := g.SCC()
	rec := make(map[Edge]bool)
	for n := range g.rows {
		for _, e := range g.rows[n].out {
			if comp[n] == comp[e.Callee] {
				rec[e] = true
			}
		}
	}
	return rec
}

// ForwardIn returns the incoming edges of n that are not in the rec set,
// in insertion order.
func (g *Graph) ForwardIn(n NodeID, rec map[Edge]bool) []Edge {
	in := g.In(n)
	if len(rec) == 0 {
		return in
	}
	var out []Edge
	for _, e := range in {
		if !rec[e] {
			out = append(out, e)
		}
	}
	return out
}

// TopoOrder returns the nodes in a topological order of the graph with the
// recursive edges rec removed: every node appears after all of its
// (non-recursive) predecessors. The order is deterministic: among ready
// nodes, the smallest NodeID is emitted first (Kahn's algorithm with an
// ordered frontier).
//
// It returns an error if the reduced graph still contains a cycle, which
// indicates rec was not a valid recursive-edge set.
func (g *Graph) TopoOrder(rec map[Edge]bool) ([]NodeID, error) {
	n := len(g.nodes)
	// The removed edges are marked by edge id, so the walk below probes no
	// map.
	nb := g.Numbering()
	skip := make([]bool, nb.NumEdges())
	for e, on := range rec {
		if i := nb.EdgeIndex(e); on && i >= 0 {
			skip[i] = true
		}
	}
	indeg := make([]int32, n)
	for i, c := range nb.Callee {
		if !skip[i] {
			indeg[c]++
		}
	}
	// Min-heap of ready nodes, keyed by NodeID for determinism.
	var heap nodeHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for heap.len() > 0 {
		v := heap.pop()
		order = append(order, v)
		for i := nb.OutStart[v]; i < nb.OutStart[v+1]; i++ {
			if skip[i] {
				continue
			}
			c := nb.Callee[i]
			if indeg[c]--; indeg[c] == 0 {
				heap.push(NodeID(c))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("callgraph: graph is cyclic after removing %d recursive edges", len(rec))
	}
	return order, nil
}

// ReachableFrom returns the set of nodes reachable from start (inclusive)
// following all edges.
func (g *Graph) ReachableFrom(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	work := []NodeID{start}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.Out(v) {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	return seen
}

// nodeHeap is a small binary min-heap of NodeIDs. Implemented locally to
// avoid the interface boxing of container/heap in the hot analysis path.
type nodeHeap struct{ a []NodeID }

func (h *nodeHeap) len() int { return len(h.a) }

func (h *nodeHeap) push(v NodeID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *nodeHeap) pop() NodeID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.a) && h.a[l] < h.a[m] {
			m = l
		}
		if r < len(h.a) && h.a[r] < h.a[m] {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
