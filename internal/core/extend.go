// Incremental re-encoding (the ROADMAP's "absorb new code" step): Extend
// takes the Result of a previous Encode and a grown call graph — the old
// graph plus late-loaded classes' nodes and edges — and produces the Result
// a full re-run of Algorithm 2 over the grown graph would produce, while
// recomputing addition values and territories only for the *dirty
// territory* of the delta.
//
// The dirty territory is the least fixpoint of three propagation rules,
// each justified by how Algorithm 1's quantities flow:
//
//  1. A node with a changed CAV cell dirties the callees of its non-recursive
//     out-edges — unless the node was already an anchor in the previous
//     encoding, because an anchor's ICC is the constant {self: 1} and so its
//     downstream writes (ICC[caller][r] + AV) cannot change.
//  2. A dirty node dirties the sites of its non-recursive in-edges: their
//     addition value is a max over their targets' CAVs.
//  3. A dirty site dirties all of its non-recursive dispatch targets: the
//     site writes ICC[caller][r] + AV into every one of them.
//
// Rule 3 gives the invariant the pass depends on: a site is either entirely
// clean (no dirty target, so its AV and every value it writes are unchanged
// from the previous pass) or entirely dirty (recomputed here, reading only
// CAV cells that are themselves rebuilt or provably unchanged). Only the
// territories of new anchors, and of anchors whose territory contains a
// changed edge's caller or a new anchor, can change membership (anything
// else sees the identical traversal), and only at dirty nodes: a clean
// node's territory row is its previous row, so its cells carry over as they
// are. The rows are rebuilt for the whole grown graph by the union rule
// (engine.go), which is cheap beside the sweep, and Extend checks that
// every clean node's row came out unchanged.
//
// Reused clean values and recomputed dirty values always compose into a
// sound encoding: clean cells are only ever written by clean sites and dirty
// cells only by dirty sites, and a dirty site's addition value is maximized
// over its targets' cells with every clean contribution already at its final
// value — so dirty ranges stack strictly above clean ones and disjointness
// (the injectivity core internal/verify certifies) holds piece by piece.
//
// Bit-exactness with a from-scratch pass is a stronger property and holds
// conditionally: Algorithm 1's addition values depend on the order sites are
// processed, which follows the deterministic topological order of the whole
// graph. When the grown graph's topological order restricted to the old
// nodes equals the old order (always true when no added edge points into an
// old node, and commonly true otherwise), clean sites cannot overflow —
// their written values already fit under the same MaxID — so the first
// overflow Extend meets is the first a full pass would meet, the
// anchor-promotion loop converges identically, and the Result equals
// Encode(grown graph, ForceAnchors: previous piece starts) cell for cell.
// When the delta does reorder old nodes, Extend keeps the previous (equally
// valid) choice for clean territory instead of chasing the re-shuffled one;
// the differential tests then certify soundness through internal/verify and
// frame-exact decoding rather than spec equality.
package core

import (
	"fmt"
	"math"
	"slices"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// ExtendStats reports how much of the encoding an Extend actually touched —
// the incremental win over a from-scratch Encode.
type ExtendStats struct {
	NewNodes          int `json:"new_nodes"`
	NewEdges          int `json:"new_edges"`
	NewlyRecursive    int `json:"newly_recursive_edges"`
	DirtyNodes        int `json:"dirty_nodes"`
	TotalNodes        int `json:"total_nodes"`
	DirtySites        int `json:"dirty_sites"`
	TotalSites        int `json:"total_sites"`
	RecomputedAnchors int `json:"recomputed_anchors"`
	TotalAnchors      int `json:"total_anchors"`
	Restarts          int `json:"restarts"`
	// DirtyTerritories counts the piece-start territories whose verification
	// obligations this extension invalidated; DirtyTerritoryList names them
	// (piece-start node IDs, sorted) for verify.CheckDelta. The list is a
	// superset of the re-walked territories: a territory whose membership is
	// unchanged still re-proves when a dirty node or dirty site changed the
	// addition values its interval check reads.
	DirtyTerritories   int                `json:"dirty_territories"`
	DirtyTerritoryList []callgraph.NodeID `json:"-"`
}

// Extend incrementally re-encodes g, which must be the graph of prev plus
// appended nodes and edges (never removals — clone the old graph and grow
// the clone). opts must carry the same MaxID prev was encoded under; the
// profile-guided and forced-anchor modes are not supported incrementally.
// prev is never mutated: old-epoch decoders may keep reading it while
// Extend runs.
//
// It runs on Encode's engine: each attempt builds the grown graph's
// territory rows by the union rule, copies every clean node's CAV cells
// from its previous row, carries every clean site's addition value over by
// (caller, label), and sweeps only the dirty sites, in the engine's task
// order. An overflow promotes the caller and starts the attempt over;
// Extend restarts are rare.
func Extend(prev *Result, g *callgraph.Graph, opts Options) (*Result, *ExtendStats, error) {
	if prev == nil || prev.terr == nil {
		return nil, nil, fmt.Errorf("core: Extend needs a Result produced by Encode or Extend in this process (loaded analyses carry no incremental state)")
	}
	if len(opts.EdgeProfile) > 0 || len(opts.ForceAnchors) > 0 {
		return nil, nil, fmt.Errorf("core: Extend supports only the MaxID option (profile ordering and forced anchors are whole-pass modes)")
	}
	if prev.Spec.PerEdge {
		return nil, nil, fmt.Errorf("core: Extend does not support per-edge encodings")
	}
	for _, k := range prev.Spec.Push {
		if k != encoding.PieceRecursion {
			return nil, nil, fmt.Errorf("core: Extend does not support pruned encodings (push kind %v)", k)
		}
	}
	if err := prev.Spec.CheckSiteAV(); err != nil {
		return nil, nil, fmt.Errorf("core: Extend: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	oldG := prev.Spec.Graph
	entry, _ := g.Entry()
	if oldEntry, _ := oldG.Entry(); oldEntry != entry {
		return nil, nil, fmt.Errorf("core: Extend changed the entry node (%s -> %s)", oldG.Name(oldEntry), g.Name(entry))
	}
	if g.NumNodes() < oldG.NumNodes() {
		return nil, nil, fmt.Errorf("core: Extend removed nodes (%d -> %d)", oldG.NumNodes(), g.NumNodes())
	}
	for _, n := range oldG.Nodes() {
		if g.Node(n).Name != oldG.Node(n).Name {
			return nil, nil, fmt.Errorf("core: Extend renumbered node %d (%s -> %s); the old graph must be a prefix of the new",
				n, oldG.Node(n).Name, g.Node(n).Name)
		}
		for _, e := range oldG.Out(n) {
			if !g.HasEdge(e) {
				return nil, nil, fmt.Errorf("core: Extend removed edge %v", e)
			}
		}
	}

	comp2, rec2 := recursiveEdges(g)
	topo, err := g.TopoOrder(rec2)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	// The graph delta. Adding edges can only merge SCCs, so the old
	// recursive set (prev's push edges) is a subset of the new one: edges
	// are newly recursive, never newly acyclic.
	var newEdges, newlyRec []callgraph.Edge
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			if !oldG.HasEdge(e) {
				newEdges = append(newEdges, e)
			} else if _, pushed := prev.Spec.Push[e]; rec2[e] && !pushed {
				newlyRec = append(newlyRec, e)
			}
		}
	}

	// Anchor set: everything the previous encoding chose (entry, recursive
	// targets, overflow anchors, context roots) plus the delta's recursive
	// targets, context roots and orphan-coverage anchors. Keeping every old
	// anchor is what lets clean territory be reused verbatim.
	an := make(map[callgraph.NodeID]bool, len(prev.PieceStarts)+4)
	for n := range prev.PieceStarts {
		an[n] = true
	}
	recTargets := make(map[callgraph.NodeID]bool)
	for e := range rec2 {
		an[e.Callee] = true
		recTargets[e.Callee] = true
	}
	for _, n := range g.ContextRoots() {
		an[n] = true
	}
	addOrphanAnchors(g, comp2, an)
	// The resetting subset carries over the previous choice for the entry
	// (it may have been overflow-promoted) and adds it when the delta made
	// the entry a recursive target.
	resets := resetAnchors(an, entry, recTargets[entry] || prev.Spec.Anchors[entry])
	st := &restartState{maxID: maxID, comp: comp2, rec: rec2, topo: topo, an: an, resets: resets}

	res := &Result{}
	stats := &ExtendStats{
		NewNodes:       g.NumNodes() - oldG.NumNodes(),
		NewEdges:       len(newEdges),
		NewlyRecursive: len(newlyRec),
		TotalNodes:     g.NumNodes(),
		TotalSites:     g.NumSites(),
	}
	eng := newEngine(g, st, nil)
	for {
		p, err := eng.extendOnce(prev, st, newEdges, newlyRec, stats)
		if err != nil {
			return nil, nil, err
		}
		if p < 0 {
			res.finish(g, st, eng)
			stats.TotalAnchors = len(an)
			return res, stats, nil
		}
		if _, err := eng.promote(g, st, res, p); err != nil {
			return nil, nil, err
		}
		stats.Restarts++
	}
}

// extendOnce is one attempt of the incremental pass over the current
// anchor set. It returns the caller to promote on overflow and -1 on
// success — and, because clean sites cannot overflow, the promoted caller
// is the one a full pass would promote.
func (eng *engine) extendOnce(prev *Result, st *restartState,
	newEdges, newlyRec []callgraph.Edge, stats *ExtendStats) (callgraph.NodeID, error) {

	nb := eng.nb
	nn := len(eng.topo)
	oldN := prev.Spec.Graph.NumNodes()
	prevPS, prevResets := prev.PieceStarts, prev.Spec.Anchors

	// Anchors whose territory changed: every new anchor, plus every old
	// anchor whose territory contains a changed edge's caller or a new
	// anchor (its bounded DFS sees a different graph or retreats at a new
	// boundary). New nodes are reachable only through new edges whose
	// callers are covered here, so chains into new code are included.
	var newAnchors []callgraph.NodeID
	for n := range st.an {
		if !prevPS[n] {
			newAnchors = append(newAnchors, n)
		}
	}
	// The entry can flip from flow-through to resetting (the delta made it
	// a recursive target): territories that ran through it now retreat at
	// it and its ICC collapses to {entry: 1}, so it behaves exactly like a
	// new anchor for both territory recomputation and dirtiness.
	for n := range st.resets {
		if !prevResets[n] && prevPS[n] {
			newAnchors = append(newAnchors, n)
		}
	}
	inR := make([]bool, nn)
	touched := append([]callgraph.NodeID(nil), newAnchors...)
	for _, e := range newEdges {
		touched = append(touched, e.Caller)
	}
	for _, e := range newlyRec {
		touched = append(touched, e.Caller)
	}
	for _, v := range newAnchors {
		inR[v] = true
	}
	for _, x := range touched {
		if int(x) < oldN {
			rows, _ := prev.terr.row(x)
			for _, r := range rows {
				inR[r] = true
			}
		}
	}
	stats.RecomputedAnchors = count(inR)

	// Rows for the grown graph by the union rule; every cell starts at 0.
	eng.rebuild(0)

	// Dirty closure (rules 1–3 above). Seeds: new nodes, the sites and
	// non-recursive targets of new edges, the sites of newly recursive
	// edges (their AV loses a contributor), and new anchors (their ICC
	// flips to {self: 1}).
	siteOf := make([]int32, nb.NumEdges())
	for k := int32(0); int(k) < nb.NumSites(); k++ {
		for _, ei := range nb.Targets(k) {
			siteOf[ei] = k
		}
	}
	dirty := make([]bool, nn)
	dirtySite := make([]bool, nb.NumSites())
	var queue []int32
	addNode := func(n int32) {
		if !dirty[n] {
			dirty[n] = true
			queue = append(queue, n)
		}
	}
	markSite := func(k int32) {
		if dirtySite[k] {
			return
		}
		dirtySite[k] = true
		for _, ei := range nb.Targets(k) {
			if st.comp[nb.Caller[ei]] != st.comp[nb.Callee[ei]] {
				addNode(nb.Callee[ei])
			}
		}
	}
	for n := oldN; n < nn; n++ {
		addNode(int32(n))
	}
	for _, e := range newEdges {
		if !st.rec[e] {
			markSite(siteOf[nb.EdgeIndex(e)])
			addNode(int32(e.Callee))
		}
	}
	for _, e := range newlyRec {
		// The site's AV loses this edge as a contributor, and the callee —
		// now a recursion anchor — may drop out of territories whose DFS
		// previously ran through the edge, so its CAV cells must be rebuilt.
		markSite(siteOf[nb.EdgeIndex(e)])
		addNode(int32(e.Callee))
	}
	for _, v := range newAnchors {
		addNode(int32(v))
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Old resetting anchors stop rule 1: their ICC is the constant
		// {self: 1}. A flow-through entry's ICC is not constant, so it
		// propagates like any interior node.
		if !prevResets[callgraph.NodeID(n)] {
			for ei := nb.OutStart[n]; ei < nb.OutStart[n+1]; ei++ {
				if st.comp[n] != st.comp[nb.Callee[ei]] {
					addNode(nb.Callee[ei])
				}
			}
		}
		i := eng.pos[n]
		for _, ei := range eng.inBuf[eng.inOff[i]:eng.inOff[i+1]] {
			markSite(siteOf[ei])
		}
	}
	stats.DirtyNodes = count(dirty)
	stats.DirtySites = count(dirtySite)

	// Export the territories whose proof obligations this delta invalidates:
	// every re-walked territory (membership may differ) plus every territory
	// containing a dirty node or a dirty site's caller — their interval
	// checks re-derive from changed AV/ICC values even when membership is
	// untouched. The rows are the grown graph's.
	dirtyTerr := slices.Clone(inR)
	for n, d := range dirty {
		if d {
			for _, r := range eng.row(int32(n)) {
				dirtyTerr[r] = true
			}
		}
	}
	for k, d := range dirtySite {
		if d {
			for _, r := range eng.row(nb.Caller[nb.Targets(int32(k))[0]]) {
				dirtyTerr[r] = true
			}
		}
	}
	list := make([]callgraph.NodeID, 0, count(dirtyTerr))
	for r, d := range dirtyTerr {
		if d {
			list = append(list, callgraph.NodeID(r))
		}
	}
	stats.DirtyTerritoryList = list
	stats.DirtyTerritories = len(list)

	// A clean node keeps its final cells: rule 1 leaves its territory row
	// as it was, so its cells line up one for one with the previous row.
	for n := 0; n < oldN; n++ {
		if dirty[n] {
			continue
		}
		rows, cav := prev.terr.row(callgraph.NodeID(n))
		if !slices.Equal(rows, eng.row(int32(n))) {
			return 0, fmt.Errorf("core: Extend: clean node %s changed territories (%v -> %v)",
				prev.Spec.Graph.Name(callgraph.NodeID(n)), rows, eng.row(int32(n)))
		}
		copy(eng.cav[eng.rowOff[eng.pos[n]]:], cav)
	}

	// The pass itself: the full sweep's task order restricted to dirty
	// sites. A clean site keeps its addition value, found by (caller,
	// label) in the previous numbering; it writes only clean cells, which
	// already hold their final values. A site that is in no task (every
	// target recursive) has no addition value.
	prevNb := prev.Spec.Graph.Numbering()
	clear(eng.av)
	for _, s := range eng.taskBuf {
		if !dirtySite[s] {
			eng.av[s] = prev.Spec.SiteAV[prevNb.SiteIndex(nb.Site(s))]
			continue
		}
		a := eng.increment(s)
		eng.av[s] = a
		if c := eng.write(s, a, 0); c >= 0 {
			return callgraph.NodeID(c), nil
		}
	}
	return -1, nil
}

// count reports how many of b are set.
func count(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
