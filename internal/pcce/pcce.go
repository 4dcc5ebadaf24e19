// Package pcce implements Precise Calling Context Encoding (Sumner et al.,
// ICSE 2010), the baseline DeltaPath improves on. PCCE adapts the
// Ball–Larus path-numbering algorithm to call graphs:
//
//   - the number of calling contexts NC of each node is the sum of the NCs
//     of its predecessors (NC of the entry is 1);
//   - a node's incoming edges get addition values: 0 for the first edge, and
//     for each following edge the sum of the NCs of the predecessors of the
//     previously processed edges (Section 2 of the DeltaPath paper).
//
// Addition values are per edge. At a virtual call site with several dispatch
// targets the edges carry conflicting values, so instrumentation needs a
// per-target dispatch switch — the very cost DeltaPath's Algorithm 1
// eliminates. The produced Spec therefore has PerEdge set.
//
// When an addition value would overflow the configured limit, PCCE prunes
// the edge: it carries no addition value and is handled at runtime like a
// recursive edge (save the ID and the call site, reset, continue), at a
// relatively high runtime cost — the scalability weakness Section 3.2 of
// the DeltaPath paper addresses with anchor nodes.
package pcce

import (
	"fmt"
	"math"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// Options configures the encoding.
type Options struct {
	// MaxID is the largest representable encoding value; addition values
	// and context counts are kept at or below it by pruning edges.
	// Zero means 2^63-1.
	MaxID uint64
}

// Result is the outcome of the PCCE static analysis.
type Result struct {
	Spec *encoding.Spec
	// NC is the number of calling contexts of each node (clamped by
	// pruning; at least 1).
	NC []uint64
	// Pruned lists the edges pruned to avoid overflow, in discovery order.
	Pruned []callgraph.Edge
	// MaxID is the largest encoding ID value any context can take: the
	// static encoding-space requirement (Table 1's "max. ID" column).
	MaxID uint64
	// VirtualConflicts counts call sites whose dispatch targets carry
	// differing addition values — the sites where PCCE needs a dispatch
	// switch and DeltaPath does not.
	VirtualConflicts int
}

// Encode runs the PCCE analysis on g.
func Encode(g *callgraph.Graph, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	entry, _ := g.Entry()
	rec := g.RecursiveEdges()
	topo, err := g.TopoOrder(rec)
	if err != nil {
		return nil, fmt.Errorf("pcce: %w", err)
	}

	spec := &encoding.Spec{
		Graph:   g,
		EdgeAV:  make(map[callgraph.Edge]uint64),
		PerEdge: true,
		Push:    make(map[callgraph.Edge]encoding.PieceKind),
	}
	for e := range rec {
		spec.Push[e] = encoding.PieceRecursion
	}

	res := &Result{Spec: spec, NC: make([]uint64, g.NumNodes())}

	for _, n := range topo {
		var sum uint64
		for _, e := range g.ForwardIn(n, rec) {
			p := e.Caller
			nc := res.NC[p]
			if nc > maxID-sum {
				// Overflow: prune this edge; it starts a new piece
				// at runtime instead of contributing a range.
				spec.Push[e] = encoding.PiecePruned
				res.Pruned = append(res.Pruned, e)
				continue
			}
			spec.EdgeAV[e] = sum
			sum += nc
		}
		if sum > res.MaxID {
			res.MaxID = sum
		}
		if sum == 0 {
			// Entry, or a node reached only through recursive or
			// pruned edges: it starts pieces, so reserve width 1 to
			// keep downstream ranges disjoint.
			sum = 1
		}
		res.NC[n] = sum
	}
	_ = entry
	if res.MaxID > 0 {
		res.MaxID-- // NC is an exclusive bound; the largest ID is NC-1.
	}

	res.VirtualConflicts = countConflicts(g, spec)
	return res, nil
}

// countConflicts counts sites whose (non-push) dispatch edges disagree on
// the addition value.
func countConflicts(g *callgraph.Graph, spec *encoding.Spec) int {
	n := 0
	for _, s := range g.Sites() {
		var first uint64
		seen := false
		conflict := false
		for _, e := range g.SiteTargets(s) {
			if _, pushed := spec.Push[e]; pushed {
				continue
			}
			av := spec.EdgeAV[e]
			if !seen {
				first, seen = av, true
			} else if av != first {
				conflict = true
			}
		}
		if conflict {
			n++
		}
	}
	return n
}
