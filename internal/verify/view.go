package verify

import (
	"cmp"
	"slices"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// view is the verifier's dense reading of one Spec, built once per Check or
// CheckDelta: the graph in CSR form with every per-edge input the proofs
// read resolved into flat arrays, so no proof hashes a map key. It is
// derived from the Spec and the graph's own numbering alone — never from
// core's engine or the compiled decoder's tables — which keeps the verifier
// independent of what it checks.
//
// An edge's dense index is its slot in the out-CSR, and a call site's is its
// position in Graph.Sites order: the ids of callgraph.Numbering.
type view struct {
	spec *encoding.Spec
	g    *callgraph.Graph
	n    int
	nb   *callgraph.Numbering

	// Node v's out-edges are slots [outStart[v], outStart[v+1]), in
	// insertion order: the order fingerprints hash and forwardSCC walks.
	// The four arrays are the numbering's.
	outStart []int32
	caller   []int32
	callee   []int32
	label    []int32
	// push is 1+kind for a piece-starting edge and 0 otherwise; av is the
	// edge's effective addition value (Spec.AV).
	push []uint16
	av   []uint64

	// Node v's forward (non-push) in-edges are slots
	// inEdges[inStart[v]:inStart[v+1]], sorted by (av, caller, label): the
	// order the interval check compares them in. inCaller and inAV repeat
	// each one's caller and addition value, so proofs scan them in order.
	inStart  []int32
	inEdges  []int32
	inCaller []int32
	inAV     []uint64

	// Keys of the spec's maps that name nothing in the graph, for the
	// structure check.
	strayEdgeAV  []callgraph.Edge
	strayAnchors []callgraph.NodeID

	// anchor is a bitset of the true, in-range keys of Spec.Anchors.
	anchor []uint64

	// topo is the forward (non-push) topological order callgraph.TopoOrder
	// yields — Kahn's walk with the smallest ready NodeID first — and
	// rank[v] is v's position in it. Both are nil when the forward graph is
	// cyclic.
	topo []int32
	rank []int32
}

// newView builds the dense view of spec. The graph must have passed
// Validate, so every edge endpoint is a node.
func newView(spec *encoding.Spec) *view {
	g := spec.Graph
	n := g.NumNodes()
	nb := g.Numbering()
	m := nb.NumEdges()
	v := &view{
		spec:     spec,
		g:        g,
		n:        n,
		nb:       nb,
		outStart: nb.OutStart,
		caller:   nb.Caller,
		callee:   nb.Callee,
		label:    nb.Label,
		push:     make([]uint16, m),
		av:       make([]uint64, m),
		anchor:   make([]uint64, (n+63)/64),
	}
	// The spec's maps are read by iterating them once, each key located in
	// the view: sequential map walks rather than a random probe per edge.
	for a, on := range spec.Anchors {
		if a < 0 || int(a) >= n {
			v.strayAnchors = append(v.strayAnchors, a)
		} else if on {
			v.anchor[a>>6] |= 1 << (a & 63)
		}
	}
	for e, kind := range spec.Push {
		if i := nb.EdgeIndex(e); i >= 0 {
			v.push[i] = 1 + uint16(kind)
		}
	}
	// SiteAV is read by site id; one of the wrong length is a structure
	// finding and contributes no addition value.
	if spec.CheckSiteAV() == nil {
		for k, av := range spec.SiteAV {
			for _, e := range nb.Targets(int32(k)) {
				v.av[e] = av
			}
		}
	}
	for e, av := range spec.EdgeAV {
		if i := nb.EdgeIndex(e); i < 0 {
			v.strayEdgeAV = append(v.strayEdgeAV, e)
		} else if spec.PerEdge {
			v.av[i] = av
		}
	}
	v.buildInRows()
	return v
}

// buildInRows regroups the forward edges by callee (counting sort) and
// orders each row by (av, caller, label).
func (v *view) buildInRows() {
	v.inStart = make([]int32, v.n+1)
	for e, c := range v.callee {
		if v.push[e] == 0 {
			v.inStart[c+1]++
		}
	}
	for u := 0; u < v.n; u++ {
		v.inStart[u+1] += v.inStart[u]
	}
	v.inEdges = make([]int32, v.inStart[v.n])
	fill := slices.Clone(v.inStart[:v.n])
	for e, c := range v.callee {
		if v.push[e] == 0 {
			v.inEdges[fill[c]] = int32(e)
			fill[c]++
		}
	}
	for u := 0; u < v.n; u++ {
		slices.SortFunc(v.inEdges[v.inStart[u]:v.inStart[u+1]], func(a, b int32) int {
			if c := cmp.Compare(v.av[a], v.av[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(v.caller[a], v.caller[b]); c != 0 {
				return c
			}
			return cmp.Compare(v.label[a], v.label[b])
		})
	}
	v.inCaller = make([]int32, len(v.inEdges))
	v.inAV = make([]uint64, len(v.inEdges))
	for k, e := range v.inEdges {
		v.inCaller[k], v.inAV[k] = v.caller[e], v.av[e]
	}
}

func (v *view) site(e int32) callgraph.Site {
	return callgraph.Site{Caller: callgraph.NodeID(v.caller[e]), Label: v.label[e]}
}

func (v *view) isAnchor(u int32) bool { return v.anchor[u>>6]&(1<<(u&63)) != 0 }

// pieceStarts returns the nodes at which pieces begin — the entry plus
// every anchor — in increasing node order.
func (v *view) pieceStarts() []callgraph.NodeID {
	entry, _ := v.g.Entry()
	var starts []callgraph.NodeID
	for u := 0; u < v.n; u++ {
		if callgraph.NodeID(u) == entry || v.isAnchor(int32(u)) {
			starts = append(starts, callgraph.NodeID(u))
		}
	}
	return starts
}

// topoOrder fills topo and rank with the forward graph's topological order
// and reports whether one exists: the forward graph is acyclic iff every
// node is emitted.
func (v *view) topoOrder() bool {
	indeg := make([]int32, v.n)
	for u := range indeg {
		indeg[u] = v.inStart[u+1] - v.inStart[u]
	}
	var ready minHeap
	for u := 0; u < v.n; u++ {
		if indeg[u] == 0 {
			ready.push(int32(u))
		}
	}
	topo := make([]int32, 0, v.n)
	for len(ready) > 0 {
		u := ready.pop()
		topo = append(topo, u)
		for e := v.outStart[u]; e < v.outStart[u+1]; e++ {
			if v.push[e] != 0 {
				continue
			}
			c := v.callee[e]
			if indeg[c]--; indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(topo) != v.n {
		return false
	}
	v.topo, v.rank = topo, make([]int32, v.n)
	for r, u := range topo {
		v.rank[u] = int32(r)
	}
	return true
}

// minHeap is a binary min-heap of node ids: Kahn's ordered frontier.
type minHeap []int32

func (h *minHeap) push(u int32) {
	a := append(*h, u)
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *minHeap) pop() int32 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(a) && a[l] < a[m] {
			m = l
		}
		if r < len(a) && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}
