// Package cpt implements the call path tracking technique of Section 4.1 —
// the piece of DeltaPath that keeps encodings correct when dynamically
// loaded classes introduce call paths static analysis never saw, and that
// enables the selective ("flexible") encoding of Section 4.2.
//
// Static side (this package): every node starts in its own set; for each
// call site, the sets of all its dispatch targets are merged (union–find).
// Each final set gets a set identifier (SID); all possible targets of any
// one call site share a SID.
//
// Runtime side (package instrument): before an instrumented call, the
// expected callee SID, the call site, and the current encoding ID are
// saved; at the entry of every statically loaded function, the function's
// SID is compared with the saved expectation. A mismatch means control
// reached this function through at least one unanalysed frame — a
// hazardous unexpected call path (UCP) — and the encoding responds by
// pushing the saved information and restarting a piece. Equal SIDs mean the
// UCP, if any, was benign: the decoded context is exact except that
// unanalysed frames are transparently absent (Figure 6's B→X→D case).
package cpt

import (
	"deltapath/internal/callgraph"
)

// Plan is the static output of call path tracking analysis.
type Plan struct {
	// SID maps each node to its set identifier. SIDs are dense, 0-based.
	SID []int32
	// Expected holds, by the site ids of the graph's numbering
	// (callgraph.Numbering), the SID every one of the site's static
	// dispatch targets carries; -1 marks a site with no expectation. It has
	// one entry per call site.
	Expected []int32
	// NumSets is the number of distinct SIDs.
	NumSets int
}

// Compute runs the set-merging analysis on g, over the graph's numbering.
func Compute(g *callgraph.Graph) *Plan {
	n := g.NumNodes()
	nb := g.Numbering()
	uf := newUnionFind(n)
	for k := int32(0); int(k) < nb.NumSites(); k++ {
		targets := nb.Targets(k)
		for _, e := range targets[1:] {
			uf.union(int(nb.Callee[targets[0]]), int(nb.Callee[e]))
		}
	}
	plan := &Plan{
		SID:      make([]int32, n),
		Expected: make([]int32, nb.NumSites()),
	}
	// Densify set identifiers in node order for determinism: a root's SID
	// is assigned when the first node of its set is met.
	next := int32(0)
	sidOfRoot := make([]int32, n)
	for i := range sidOfRoot {
		sidOfRoot[i] = -1
	}
	for i := 0; i < n; i++ {
		root := uf.find(i)
		if sidOfRoot[root] < 0 {
			sidOfRoot[root] = next
			next++
		}
		plan.SID[i] = sidOfRoot[root]
	}
	plan.NumSets = int(next)
	for k := int32(0); int(k) < nb.NumSites(); k++ {
		plan.Expected[k] = plan.SID[nb.Callee[nb.Targets(k)[0]]]
	}
	return plan
}

// SharedSID reports whether every target of the site has the same SID —
// an internal invariant, exported for tests and validation.
func (p *Plan) SharedSID(g *callgraph.Graph, s callgraph.Site) bool {
	k := g.Numbering().SiteIndex(s)
	if k < 0 || int(k) >= len(p.Expected) {
		return false
	}
	for _, e := range g.SiteTargets(s) {
		if p.SID[e.Callee] != p.Expected[k] {
			return false
		}
	}
	return true
}

// unionFind is a standard union–find with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
