package encoding

import (
	"cmp"
	"slices"
)

// Rows is the forward in-edge image of a Spec over its graph's numbering
// (callgraph.Numbering): the one set of arrays that Compile lowers into the
// decoder's tables and that the verifier proves. Edge and node ids are the
// numbering's. BuildRows makes a fresh image on every call; nothing is
// cached on the Spec, which tests mutate between calls.
type Rows struct {
	// Push is 1+kind for an edge id that starts a piece (a key of
	// Spec.Push) and 0 for a forward edge. AV is each edge id's addition
	// value, Spec.AV: a SiteAV of the wrong length reads as zeros.
	Push []uint16
	AV   []uint64

	// Node v's forward in-edges are slots [InStart[v], InStart[v+1]) of
	// InEdge, in ascending (AV, caller, label) order. InCaller and InAV
	// repeat each slot's caller and addition value, so a row is scanned
	// without indirection.
	InStart  []int32
	InEdge   []int32
	InCaller []int32
	InAV     []uint64

	// Anchor is a bitset by node id of the true, in-range keys of
	// Spec.Anchors.
	Anchor []uint64
}

// BuildRows builds spec's rows: the push kinds and addition values by edge
// id, the forward edges grouped by callee (a counting sort) and ordered
// within each row, and the anchor bitset.
func BuildRows(spec *Spec) *Rows {
	nb := spec.Graph.Numbering()
	n, m := len(nb.OutStart)-1, nb.NumEdges()
	r := &Rows{
		Push:    make([]uint16, m),
		AV:      make([]uint64, m),
		InStart: make([]int32, n+1),
		Anchor:  make([]uint64, (n+63)/64),
	}
	for e, kind := range spec.Push {
		if i := nb.EdgeIndex(e); i >= 0 {
			r.Push[i] = 1 + uint16(kind)
		}
	}
	if spec.PerEdge {
		for e, av := range spec.EdgeAV {
			if i := nb.EdgeIndex(e); i >= 0 {
				r.AV[i] = av
			}
		}
	} else if len(spec.SiteAV) == nb.NumSites() {
		for k, av := range spec.SiteAV {
			for _, e := range nb.Targets(int32(k)) {
				r.AV[e] = av
			}
		}
	}
	for a, on := range spec.Anchors {
		if on && a >= 0 && int(a) < n {
			r.Anchor[a>>6] |= 1 << (a & 63)
		}
	}

	for e, c := range nb.Callee {
		if r.Push[e] == 0 {
			r.InStart[c+1]++
		}
	}
	for v := 0; v < n; v++ {
		r.InStart[v+1] += r.InStart[v]
	}
	r.InEdge = make([]int32, r.InStart[n])
	fill := slices.Clone(r.InStart[:n])
	for e, c := range nb.Callee {
		if r.Push[e] == 0 {
			r.InEdge[fill[c]] = int32(e)
			fill[c]++
		}
	}
	av, caller, label := r.AV, nb.Caller, nb.Label
	order := func(a, b int32) int {
		if c := cmp.Compare(av[a], av[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(caller[a], caller[b]); c != 0 {
			return c
		}
		return cmp.Compare(label[a], label[b])
	}
	for v := 0; v < n; v++ {
		if row := r.InEdge[r.InStart[v]:r.InStart[v+1]]; len(row) > 1 {
			slices.SortFunc(row, order)
		}
	}
	r.InCaller = make([]int32, len(r.InEdge))
	r.InAV = make([]uint64, len(r.InEdge))
	for k, e := range r.InEdge {
		r.InCaller[k], r.InAV[k] = caller[e], av[e]
	}
	return r
}
