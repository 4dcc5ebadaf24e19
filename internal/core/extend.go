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
// CAV cells that are themselves rebuilt or provably unchanged). Territories
// are likewise recomputed only for anchors whose bounded DFS could have
// changed: new anchors, plus every anchor whose territory contains a changed
// edge's caller or a new anchor (anything else sees the identical traversal).
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
	"sort"

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
// profile-guided and batch-anchor modes are not supported incrementally.
// prev is never mutated: old-epoch decoders may keep reading it while
// Extend runs.
func Extend(prev *Result, g *callgraph.Graph, opts Options) (*Result, *ExtendStats, error) {
	if prev == nil || prev.inc == nil {
		return nil, nil, fmt.Errorf("core: Extend needs a Result produced by Encode or Extend in this process (loaded analyses carry no incremental state)")
	}
	if len(opts.EdgeProfile) > 0 || opts.BatchAnchors || len(opts.ForceAnchors) > 0 {
		return nil, nil, fmt.Errorf("core: Extend supports only the MaxID option (profile ordering, batch anchors and forced anchors are whole-pass modes)")
	}
	if prev.Spec.PerEdge {
		return nil, nil, fmt.Errorf("core: Extend does not support per-edge encodings")
	}
	for _, k := range prev.Spec.Push {
		if k != encoding.PieceRecursion {
			return nil, nil, fmt.Errorf("core: Extend does not support pruned encodings (push kind %v)", k)
		}
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
	// recursive set is a subset of the new one: edges are newly recursive,
	// never newly acyclic.
	var newEdges, newlyRec []callgraph.Edge
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			if !oldG.HasEdge(e) {
				newEdges = append(newEdges, e)
			} else if rec2[e] && !prev.inc.rec[e] {
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

	res := &Result{}
	stats := &ExtendStats{
		NewNodes:       g.NumNodes() - oldG.NumNodes(),
		NewEdges:       len(newEdges),
		NewlyRecursive: len(newlyRec),
		TotalNodes:     g.NumNodes(),
		TotalSites:     g.NumSites(),
	}
	for {
		p, overflowAt, ok := runExtendOnce(prev, g, topo, rec2, an, resets, newEdges, newlyRec, maxID, stats)
		if ok {
			res.finish(g, rec2, an, resets, p)
			stats.TotalAnchors = len(an)
			return res, stats, nil
		}
		if resets[overflowAt] {
			return nil, nil, fmt.Errorf("%w: overflow at anchor %s with limit %d",
				errWidthTooSmall, g.Name(overflowAt), maxID)
		}
		an[overflowAt] = true
		resets[overflowAt] = true
		res.OverflowAnchors = append(res.OverflowAnchors, overflowAt)
		res.Restarts++
		stats.Restarts++
	}
}

// runExtendOnce is one attempt of the incremental pass over the current
// anchor set. On overflow it returns the caller to promote and ok=false,
// exactly like runOnce — and, because clean sites cannot overflow, the
// promoted caller is the one a full pass would promote.
func runExtendOnce(prev *Result, g *callgraph.Graph, topo []callgraph.NodeID,
	rec2 map[callgraph.Edge]bool, an, resets map[callgraph.NodeID]bool,
	newEdges, newlyRec []callgraph.Edge, maxID uint64,
	stats *ExtendStats) (*pass, callgraph.NodeID, bool) {

	prevPS := prev.PieceStarts
	prevResets := prev.Spec.Anchors

	// Anchors whose territory must be re-walked: every new anchor, plus
	// every old anchor whose territory contains a changed edge's caller or
	// a new anchor (its bounded DFS sees a different graph or retreats at a
	// new boundary). New nodes are reachable only through new edges whose
	// callers are covered here, so chains into new code are included.
	var newAnchors []callgraph.NodeID
	for n := range an {
		if !prevPS[n] {
			newAnchors = append(newAnchors, n)
		}
	}
	// The entry can flip from flow-through to resetting (the delta made it
	// a recursive target): territories that ran through it now retreat at
	// it and its ICC collapses to {entry: 1}, so it behaves exactly like a
	// new anchor for both territory recomputation and dirtiness.
	for n := range resets {
		if !prevResets[n] && prevPS[n] {
			newAnchors = append(newAnchors, n)
		}
	}
	inR := make(map[callgraph.NodeID]bool, len(newAnchors))
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
		for _, r := range prev.NAnchors[x] {
			inR[r] = true
		}
	}
	recompute := make([]callgraph.NodeID, 0, len(inR))
	for r := range inR {
		recompute = append(recompute, r)
	}
	sort.Slice(recompute, func(i, j int) bool { return recompute[i] < recompute[j] })
	stats.RecomputedAnchors = len(recompute)

	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID, len(prev.NAnchors)),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID, len(prev.inc.eanchors)),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64, len(prev.inc.cav)),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64, len(prev.ICC)),
		av:       make(map[callgraph.Site]uint64, len(prev.Spec.SiteAV)),
		dead:     make(map[callgraph.NodeID]map[callgraph.NodeID]bool),
		seenOver: make(map[callgraph.NodeID]bool),
	}
	// Territory reuse: keep every membership owed to an anchor outside the
	// recompute set (its DFS is provably identical), then re-walk the
	// recompute set. List order ends up differing from a full pass's
	// sorted-anchor interleave, but nothing downstream depends on it: AV is
	// a max, CAV/ICC cells are keyed writes, and a site's overflow always
	// promotes that site's one caller.
	for n, list := range prev.NAnchors {
		keep := filterAnchors(list, inR)
		if len(keep) > 0 {
			p.nanchors[n] = keep
		}
	}
	for e, list := range prev.inc.eanchors {
		keep := filterAnchors(list, inR)
		if len(keep) > 0 {
			p.eanchors[e] = keep
		}
	}
	for _, r := range recompute {
		territoryDFS(g, rec2, resets, p, r)
	}

	// Dirty closure (rules 1–3 above). Seeds: new nodes, the sites and
	// non-recursive targets of new edges, the sites of newly recursive
	// edges (their AV loses a contributor), and new anchors (their ICC
	// flips to {self: 1}).
	dirty := make(map[callgraph.NodeID]bool)
	dirtySite := make(map[callgraph.Site]bool)
	var queue []callgraph.NodeID
	addNode := func(n callgraph.NodeID) {
		if !dirty[n] {
			dirty[n] = true
			queue = append(queue, n)
		}
	}
	markSite := func(s callgraph.Site) {
		if dirtySite[s] {
			return
		}
		dirtySite[s] = true
		for _, e := range g.SiteTargets(s) {
			if !rec2[e] {
				addNode(e.Callee)
			}
		}
	}
	for n := oldGNumNodes(prev); n < g.NumNodes(); n++ {
		addNode(callgraph.NodeID(n))
	}
	for _, e := range newEdges {
		if !rec2[e] {
			markSite(e.Site())
			addNode(e.Callee)
		}
	}
	for _, e := range newlyRec {
		// The site's AV loses this edge as a contributor, and the callee —
		// now a recursion anchor — may drop out of territories whose DFS
		// previously ran through the edge, so its CAV cells must be rebuilt.
		markSite(e.Site())
		addNode(e.Callee)
	}
	for _, v := range newAnchors {
		addNode(v)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Old resetting anchors stop rule 1: their ICC is the constant
		// {self: 1}. A flow-through entry's ICC is not constant, so it
		// propagates like any interior node.
		if !prevResets[n] {
			for _, e := range g.Out(n) {
				if !rec2[e] {
					addNode(e.Callee)
				}
			}
		}
		for _, e := range g.In(n) {
			if !rec2[e] {
				markSite(e.Site())
			}
		}
	}
	stats.DirtyNodes = len(dirty)
	stats.DirtySites = len(dirtySite)

	// Export the territories whose proof obligations this delta invalidates:
	// every re-walked territory (membership may differ) plus every territory
	// containing a dirty node or a dirty site's caller — their interval
	// checks re-derive from changed AV/ICC values even when membership is
	// untouched. p.nanchors is complete for the new graph at this point, so
	// the lookups see post-delta territories.
	dirtyTerr := make(map[callgraph.NodeID]bool, len(inR))
	for r := range inR {
		dirtyTerr[r] = true
	}
	for n := range dirty {
		for _, r := range p.nanchors[n] {
			dirtyTerr[r] = true
		}
	}
	for s := range dirtySite {
		for _, r := range p.nanchors[s.Caller] {
			dirtyTerr[r] = true
		}
	}
	list := make([]callgraph.NodeID, 0, len(dirtyTerr))
	for r := range dirtyTerr {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	stats.DirtyTerritoryList = list
	stats.DirtyTerritories = len(list)

	// Copy-on-write state: clean nodes share their final CAV/ICC maps with
	// prev (never written again); dirty nodes get fresh zeroed cells.
	for n, m := range prev.inc.cav {
		p.cav[n] = m
	}
	for n, m := range prev.ICC {
		p.icc[n] = m
	}
	for n := range dirty {
		anchors := p.nanchors[n]
		m := make(map[callgraph.NodeID]uint64, len(anchors))
		for _, r := range anchors {
			m[r] = 0
		}
		p.cav[n] = m
	}
	for s, v := range prev.Spec.SiteAV {
		p.av[s] = v
	}
	// A site whose last non-recursive target turned recursive no longer
	// has an addition value at all (a full pass never visits it).
	for _, e := range newlyRec {
		s := e.Site()
		live := false
		for _, t := range g.SiteTargets(s) {
			if !rec2[t] {
				live = true
				break
			}
		}
		if !live {
			delete(p.av, s)
		}
	}

	// The pass itself: the full topological sweep restricted to dirty
	// nodes. Dirty sites surface only in dirty nodes' forward in-edges
	// (every target of a dirty site is dirty), and the earliest-target
	// dedup visits them in exactly the order a full pass would.
	processed := make(map[callgraph.Site]bool)
	for _, n := range topo {
		if !dirty[n] {
			continue
		}
		for _, e := range g.ForwardIn(n, rec2) {
			cs := e.Site()
			if processed[cs] {
				continue
			}
			processed[cs] = true
			if !dirtySite[cs] {
				continue
			}
			a, overflow := calculateIncrement(g, rec2, cs, p, maxID)
			if overflow {
				return nil, cs.Caller, false
			}
			p.av[cs] = a
		}
		if resets[n] {
			p.icc[n] = map[callgraph.NodeID]uint64{n: 1}
		} else if cavN := p.cav[n]; len(cavN) > 0 {
			m := make(map[callgraph.NodeID]uint64, len(cavN))
			for r, v := range cavN {
				m[r] = v
			}
			if an[n] {
				m[n] = 1 // non-resetting entry: reserved width of 1
			}
			p.icc[n] = m
		} else {
			delete(p.icc, n)
		}
	}

	// Final CAV cells are the maxima of their write sequences (each write
	// strictly increases a cell), so the global maximum over final cells
	// equals the running maximum a full pass tracks.
	for _, m := range p.cav {
		for _, v := range m {
			if v > p.maxCAV {
				p.maxCAV = v
			}
		}
	}
	return p, 0, true
}

func oldGNumNodes(prev *Result) int { return prev.Spec.Graph.NumNodes() }

// filterAnchors returns list minus the members of drop, as a fresh slice
// (prev's slices are shared with a live epoch and must never be appended to).
func filterAnchors(list []callgraph.NodeID, drop map[callgraph.NodeID]bool) []callgraph.NodeID {
	keep := make([]callgraph.NodeID, 0, len(list))
	for _, r := range list {
		if !drop[r] {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		return nil
	}
	return keep
}
