package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// This file keeps the map-based reference implementations the engine is
// checked against: the reference sweep (encodeOracle), the per-anchor
// territory DFS, and the map Extend (extendOracle), together with the maps
// a Result's arrays are compared in.

// oracleResult is a reference run's outcome: the Result fields both sides
// share, and the per-pass maps the engine keeps as arrays.
type oracleResult struct {
	*Result
	icc      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	nanchors map[callgraph.NodeID][]callgraph.NodeID
	cav      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	eanchors map[callgraph.Edge][]callgraph.NodeID

	// dirty is the map Extend's dirty node set (nil for Encode).
	dirty map[callgraph.NodeID]bool
}

// encodeOracle is Encode with every pass run by the reference map sweep
// instead of the engine. The engine must reproduce its Result bit for bit.
func encodeOracle(g *callgraph.Graph, opts Options) (*oracleResult, error) {
	st, err := newRestartState(g, opts, true)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for {
		run, overflowAt, ok := runOnce(g, st.topo, st.rec, st.an, st.resets, st.maxID, opts.EdgeProfile)
		if ok {
			return oracleFinish(res, g, st.rec, st.an, st.resets, run), nil
		}
		if err := oraclePromote(g, res, st.an, st.resets, overflowAt, st.maxID); err != nil {
			return nil, err
		}
	}
}

// oraclePromote is Algorithm 2's restart step on the reference maps: the
// overflowing caller p becomes a resetting anchor, unless it already is
// one, which rejects the width.
func oraclePromote(g *callgraph.Graph, res *Result, an, resets map[callgraph.NodeID]bool,
	p callgraph.NodeID, maxID uint64) error {
	if resets[p] {
		return fmt.Errorf("%w: overflow at anchor %s with limit %d", errWidthTooSmall, g.Name(p), maxID)
	}
	an[p], resets[p] = true, true
	res.OverflowAnchors = append(res.OverflowAnchors, p)
	res.Restarts++
	return nil
}

// pass is the state of one reference analysis attempt.
type pass struct {
	nanchors map[callgraph.NodeID][]callgraph.NodeID
	eanchors map[callgraph.Edge][]callgraph.NodeID
	cav      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	icc      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	av       map[callgraph.Site]uint64
	maxCAV   uint64
}

// oracleFinish assembles a reference pass's outcome. The Spec's SiteAV is
// the site-indexed slice the engine writes.
func oracleFinish(res *Result, g *callgraph.Graph, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, p *pass) *oracleResult {

	nb := g.Numbering()
	spec := &encoding.Spec{
		Graph:   g,
		SiteAV:  make([]uint64, nb.NumSites()),
		Push:    make(map[callgraph.Edge]encoding.PieceKind, len(rec)),
		Anchors: make(map[callgraph.NodeID]bool, len(resets)),
	}
	for s, v := range p.av {
		spec.SiteAV[nb.SiteIndex(s)] = v
	}
	for e := range rec {
		spec.Push[e] = encoding.PieceRecursion
	}
	for n := range resets {
		spec.Anchors[n] = true
	}
	res.Spec = spec
	res.PieceStarts = an
	if p.maxCAV > 0 {
		res.MaxID = p.maxCAV - 1
	}
	res.UnifiedVirtualSites = g.NumVirtualSites()
	return &oracleResult{Result: res, icc: p.icc, nanchors: p.nanchors, cav: p.cav, eanchors: p.eanchors}
}

// runOnce is the reference map sweep: one iteration of Algorithm 2's
// restart loop, written as the paper states it. On overflow it returns the
// caller to promote to an anchor and ok=false.
func runOnce(g *callgraph.Graph, topo []callgraph.NodeID, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, maxID uint64,
	profile map[callgraph.Edge]uint64) (*pass, callgraph.NodeID, bool) {

	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		av:       make(map[callgraph.Site]uint64),
	}
	identifyTerritories(g, rec, an, resets, p)

	// CAV[n][r] starts at 0 for every anchor r that can reach n.
	for n, anchors := range p.nanchors {
		m := make(map[callgraph.NodeID]uint64, len(anchors))
		for _, r := range anchors {
			m[r] = 0
		}
		p.cav[n] = m
	}

	processed := make(map[callgraph.Site]bool)
	for _, n := range topo {
		for _, e := range orderIn(g.ForwardIn(n, rec), profile) {
			cs := e.Site()
			if processed[cs] {
				continue
			}
			processed[cs] = true
			a, overflow := calculateIncrement(g, rec, cs, p, maxID)
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
				// Non-resetting piece start — the entry: exactly one
				// context (program start) reaches it within its own
				// piece, while calls into it continue their callers'
				// pieces, so its ICC merges the reserved 1 with the
				// interior cells those callers see.
				m[n] = 1
			}
			p.icc[n] = m
		}
	}
	return p, 0, true
}

// calculateIncrement computes the single addition value for call site cs
// (the maximum candidate addition value over all dispatch targets and all
// anchors reaching them) and then updates every target's CAVs. It reports
// overflow against maxID.
func calculateIncrement(g *callgraph.Graph, rec map[callgraph.Edge]bool,
	cs callgraph.Site, p *pass, maxID uint64) (uint64, bool) {

	var a uint64
	targets := g.SiteTargets(cs)
	for _, e := range targets {
		if rec[e] {
			continue // recursive edges carry no range; runtime pushes
		}
		for _, r := range p.eanchors[e] {
			if v := p.cav[e.Callee][r]; v > a {
				a = v
			}
		}
	}
	for _, e := range targets {
		if rec[e] {
			continue
		}
		iccP := p.icc[e.Caller]
		for _, r := range p.eanchors[e] {
			w := iccP[r]
			if w > maxID-a {
				return 0, true
			}
			v := w + a
			p.cav[e.Callee][r] = v
			if v > p.maxCAV {
				p.maxCAV = v
			}
		}
	}
	return a, false
}

// identifyTerritories computes, for every piece start, the nodes and edges
// its bounded depth-first search reaches: traversal starts at the anchor
// and retreats at resetting anchors (which still belong to the territory
// as its boundary) — only those reset the runtime encoding, so only those
// end a piece; a non-resetting entry is flowed through like any interior
// node. Recursive edges are never traversed — they start new pieces.
func identifyTerritories(g *callgraph.Graph, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, p *pass) {

	anchors := make([]callgraph.NodeID, 0, len(an))
	for r := range an {
		anchors = append(anchors, r)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })

	for _, r := range anchors {
		territoryDFS(g, rec, resets, p, r)
	}
}

// territoryDFS walks one anchor's territory, appending r to the nanchors
// and eanchors lists of everything its bounded traversal reaches. resets
// is the boundary set: the runtime-resetting anchors.
func territoryDFS(g *callgraph.Graph, rec map[callgraph.Edge]bool,
	resets map[callgraph.NodeID]bool, p *pass, r callgraph.NodeID) {

	seen := map[callgraph.NodeID]bool{r: true}
	p.nanchors[r] = append(p.nanchors[r], r)
	work := []callgraph.NodeID{r}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v != r && resets[v] {
			continue // boundary anchor: belongs to territory, not traversed
		}
		for _, e := range g.Out(v) {
			if rec[e] {
				continue
			}
			p.eanchors[e] = append(p.eanchors[e], r)
			if !seen[e.Callee] {
				seen[e.Callee] = true
				p.nanchors[e.Callee] = append(p.nanchors[e.Callee], r)
				work = append(work, e.Callee)
			}
		}
	}
}

// --- a Result's arrays as the reference maps ---

// iccMap lists every node's ICC cells (Result.ICC) as a map.
func iccMap(res *Result) map[callgraph.NodeID]map[callgraph.NodeID]uint64 {
	out := make(map[callgraph.NodeID]map[callgraph.NodeID]uint64)
	for _, n := range res.Spec.Graph.Nodes() {
		if cells := res.ICC(n); len(cells) > 0 {
			m := make(map[callgraph.NodeID]uint64, len(cells))
			for _, c := range cells {
				m[c.Anchor] = c.ICC
			}
			out[n] = m
		}
	}
	return out
}

// rowMaps returns each node's territory row and its CAV cells as maps,
// leaving out nodes with an empty row.
func rowMaps(res *Result) (map[callgraph.NodeID][]callgraph.NodeID, map[callgraph.NodeID]map[callgraph.NodeID]uint64) {
	nanchors := make(map[callgraph.NodeID][]callgraph.NodeID)
	cav := make(map[callgraph.NodeID]map[callgraph.NodeID]uint64)
	for _, n := range res.Spec.Graph.Nodes() {
		rows, cells := res.terr.row(n)
		if len(rows) == 0 {
			continue
		}
		m := make(map[callgraph.NodeID]uint64, len(rows))
		for j, r := range rows {
			nanchors[n] = append(nanchors[n], callgraph.NodeID(r))
			m[callgraph.NodeID(r)] = cells[j]
		}
		cav[n] = m
	}
	return nanchors, cav
}

// edgeRows returns each forward edge's territory row by the union rule:
// {c} when the caller c resets, else c's row. Recursive edges have none.
func edgeRows(res *Result) map[callgraph.Edge][]callgraph.NodeID {
	g := res.Spec.Graph
	nanchors, _ := rowMaps(res)
	out := make(map[callgraph.Edge][]callgraph.NodeID)
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			if _, pushed := res.Spec.Push[e]; pushed {
				continue
			}
			if res.Spec.Anchors[n] {
				out[e] = []callgraph.NodeID{n}
			} else if row := nanchors[n]; len(row) > 0 {
				out[e] = row
			}
		}
	}
	return out
}

// siteAVMap is a Spec's SiteAV as the map the reference sweeps build: one
// key per site with a non-push target.
func siteAVMap(spec *encoding.Spec) map[callgraph.Site]uint64 {
	nb := spec.Graph.Numbering()
	out := make(map[callgraph.Site]uint64)
	for k, av := range spec.SiteAV {
		for _, ei := range nb.Targets(int32(k)) {
			if _, pushed := spec.Push[nb.Edge(ei)]; !pushed {
				out[nb.Site(int32(k))] = av
				break
			}
		}
	}
	return out
}

// sortedRows returns m with every list sorted.
func sortedRows[K comparable](m map[K][]callgraph.NodeID) map[K][]callgraph.NodeID {
	out := make(map[K][]callgraph.NodeID, len(m))
	for k, list := range m {
		c := slices.Clone(list)
		slices.Sort(c)
		out[k] = c
	}
	return out
}

// --- the map Extend ---

// extendOracle is Extend as the map sweep runs it: territories kept for
// anchors outside the recompute set and re-walked by DFS for the rest,
// prev's maps shared copy-on-write, and the topological sweep restricted
// to dirty nodes. prev's maps are read off its arrays. The engine's Extend
// must reproduce its outcome and statistics exactly, whether or not the
// delta reorders old nodes.
func extendOracle(prev *Result, g *callgraph.Graph, opts Options) (*oracleResult, *ExtendStats, error) {
	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	oldG := prev.Spec.Graph
	entry, _ := g.Entry()
	comp2, rec2 := recursiveEdges(g)
	topo, err := g.TopoOrder(rec2)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
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
	resets := resetAnchors(an, entry, recTargets[entry] || prev.Spec.Anchors[entry])

	old := &oracleResult{Result: prev, icc: iccMap(prev), eanchors: edgeRows(prev)}
	old.nanchors, old.cav = rowMaps(prev)
	res := &Result{}
	stats := &ExtendStats{
		NewNodes:       g.NumNodes() - oldG.NumNodes(),
		NewEdges:       len(newEdges),
		NewlyRecursive: len(newlyRec),
		TotalNodes:     g.NumNodes(),
		TotalSites:     g.NumSites(),
	}
	for {
		p, dirty, overflowAt, ok := runExtendOnce(old, g, topo, rec2, an, resets, newEdges, newlyRec, maxID, stats)
		if ok {
			for _, m := range p.cav {
				for _, v := range m {
					p.maxCAV = max(p.maxCAV, v)
				}
			}
			stats.TotalAnchors = len(an)
			out := oracleFinish(res, g, rec2, an, resets, p)
			out.dirty = dirty
			return out, stats, nil
		}
		if err := oraclePromote(g, res, an, resets, overflowAt, maxID); err != nil {
			return nil, nil, err
		}
		stats.Restarts++
	}
}

// runExtendOnce is one attempt of the map Extend over the current anchor
// set, returning the pass and its dirty nodes. On overflow it returns the
// caller to promote and ok=false.
func runExtendOnce(prev *oracleResult, g *callgraph.Graph, topo []callgraph.NodeID,
	rec2 map[callgraph.Edge]bool, an, resets map[callgraph.NodeID]bool,
	newEdges, newlyRec []callgraph.Edge, maxID uint64,
	stats *ExtendStats) (*pass, map[callgraph.NodeID]bool, callgraph.NodeID, bool) {

	prevPS := prev.PieceStarts
	prevResets := prev.Spec.Anchors

	var newAnchors []callgraph.NodeID
	for n := range an {
		if !prevPS[n] {
			newAnchors = append(newAnchors, n)
		}
	}
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
		for _, r := range prev.nanchors[x] {
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
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID, len(prev.nanchors)),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID, len(prev.eanchors)),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64, len(prev.cav)),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64, len(prev.icc)),
		av:       siteAVMap(prev.Spec),
	}
	for n, list := range prev.nanchors {
		if keep := filterAnchors(list, inR); len(keep) > 0 {
			p.nanchors[n] = keep
		}
	}
	for e, list := range prev.eanchors {
		if keep := filterAnchors(list, inR); len(keep) > 0 {
			p.eanchors[e] = keep
		}
	}
	for _, r := range recompute {
		territoryDFS(g, rec2, resets, p, r)
	}

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
	for n := prev.Spec.Graph.NumNodes(); n < g.NumNodes(); n++ {
		addNode(callgraph.NodeID(n))
	}
	for _, e := range newEdges {
		if !rec2[e] {
			markSite(e.Site())
			addNode(e.Callee)
		}
	}
	for _, e := range newlyRec {
		markSite(e.Site())
		addNode(e.Callee)
	}
	for _, v := range newAnchors {
		addNode(v)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
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

	for n, m := range prev.cav {
		p.cav[n] = m
	}
	for n, m := range prev.icc {
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
				return nil, nil, cs.Caller, false
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
	return p, dirty, 0, true
}

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
