package verify

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// view is the verifier's dense reading of one Spec, built once per Check or
// CheckDelta: the graph in CSR form plus the Spec's rows, so no proof hashes
// a map key. The rows are encoding.BuildRows's, the very arrays the
// compiled decoder lowers: the structure check proves them against the
// numbering before any later check reads them, so what the verifier
// certifies is what the decoder runs on. Both are functions of the Spec and
// the graph alone — never of core's engine — which keeps the verifier
// independent of the analysis it checks.
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

	// Push and AV by edge id, each node's forward in-row in ascending
	// (AV, caller, label) order — the order the interval check compares
	// them in — and the Anchor bitset. Held by value, so the proofs' hot
	// loops index the slices without a pointer hop.
	encoding.Rows

	// topo is the forward (non-push) topological order callgraph.TopoOrder
	// yields — Kahn's walk with the smallest ready NodeID first — and
	// rank[v] is v's position in it. Both are nil when the forward graph is
	// cyclic.
	topo []int32
	rank []int32
}

// rowsFault, when a test sets it, edits the rows BuildRows made before the
// verifier reads them: a seeded builder fault the structure check must
// report.
var rowsFault func(*encoding.Rows)

// newView builds the dense view of spec.
func newView(spec *encoding.Spec) *view {
	nb := spec.Graph.Numbering()
	rows := encoding.BuildRows(spec)
	if rowsFault != nil {
		rowsFault(rows)
	}
	return &view{
		spec:     spec,
		g:        spec.Graph,
		n:        spec.Graph.NumNodes(),
		nb:       nb,
		outStart: nb.OutStart,
		caller:   nb.Caller,
		callee:   nb.Callee,
		label:    nb.Label,
		Rows:     *rows,
	}
}

func (v *view) site(e int32) callgraph.Site {
	return callgraph.Site{Caller: callgraph.NodeID(v.caller[e]), Label: v.label[e]}
}

func (v *view) isAnchor(u int32) bool { return v.Anchor[u>>6]&(1<<(u&63)) != 0 }

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
		indeg[u] = v.InStart[u+1] - v.InStart[u]
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
			if v.Push[e] != 0 {
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
