// Package core implements the DeltaPath encoding algorithms — the paper's
// primary contribution:
//
//   - Algorithm 1 (Section 3.1): calling-context encoding in the presence of
//     dynamic dispatch. Every call site — even a virtual one with many
//     dispatch targets — receives a single addition value, computed with the
//     candidate-addition-value (CAV) and inflated-calling-context-count (ICC)
//     machinery so that every node's encoding space splits into disjoint
//     sub-ranges per incoming edge.
//
//   - Algorithm 2 (Section 3.2): the same encoding made scalable. Whenever an
//     ICC would overflow the configured integer width, the offending caller
//     becomes an anchor node and the analysis restarts; anchors divide long
//     calling contexts into pieces, each encoded relative to its anchor
//     within the anchor's territory, so no runtime overflow checks are ever
//     needed.
//
// Encode always runs Algorithm 2; when the graph fits in the integer width
// without anchors it degenerates to Algorithm 1 exactly, and when the
// program additionally has no virtual call sites it degenerates to PCCE
// (ICC == NC for every node), which the tests verify.
//
// Recursion is handled as in PCCE (Section 2): intra-SCC call edges start a
// new piece at runtime. Their targets are made piece-start (anchor) nodes so
// each owns a reserved encoding width of 1 and roots its own territory; this
// keeps every range disjoint without special cases.
package core

import (
	"fmt"
	"math"
	"sort"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// Options configures the encoding.
type Options struct {
	// MaxID is the largest value the encoding integer can hold
	// (inclusive). ICC values never exceed it, so runtime IDs cannot
	// overflow. Zero means 2^63-1, the paper's 64-bit signed setting.
	MaxID uint64

	// ForceAnchors seeds the anchor set with the given nodes before the
	// first pass. Forced anchors reset the runtime encoding (they appear
	// in Spec.Anchors) even when the entry is forced. Used to reproduce
	// the paper's worked examples (Figure 5 fixes C and D as anchors) and
	// by the hybrid-encoding mode, where profiled trunk functions become
	// anchors (Section 8).
	ForceAnchors []callgraph.NodeID

	// EdgeProfile, when non-nil, gives execution frequencies for call
	// edges. Each node's incoming edges are then processed hottest-first,
	// so the hottest edge lands in the lowest sub-range and its site's
	// addition value is 0 — an "encoding free" site that needs no
	// instrumentation at all when call path tracking is off. This is the
	// profile-guided optimization Section 8 adopts from PCCE.
	EdgeProfile map[callgraph.Edge]uint64

	// MeasureMemory enables live-heap sampling at analysis checkpoints;
	// the high-water mark is reported in Result.Stats.PeakBytes. Off by
	// default: runtime.ReadMemStats stops the world.
	MeasureMemory bool
}

// Result is the outcome of the DeltaPath static analysis.
type Result struct {
	// Spec carries everything the runtime and the decoder need.
	Spec *encoding.Spec

	// PieceStarts is the full anchor set An of Algorithm 2: the entry,
	// every recursive-edge target, and every overflow anchor.
	PieceStarts map[callgraph.NodeID]bool

	// OverflowAnchors are the anchors added by Algorithm 2's restart
	// loop, in the order they were added (Table 1's "anchor" count).
	OverflowAnchors []callgraph.NodeID

	// Restarts counts how many times the analysis restarted.
	Restarts int

	// MaxID is the largest encoding ID any context can produce: the
	// static encoding-space requirement (Table 1's "max. ID").
	MaxID uint64

	// UnifiedVirtualSites counts virtual call sites (>1 dispatch target)
	// that received a single addition value — all of them, by
	// construction; reported for comparison against PCCE's conflicts.
	UnifiedVirtualSites int

	// Stats reports scalability characteristics of the run: the sites and
	// territory cells its passes swept and built, and (with
	// Options.MeasureMemory) the peak memory budget. Nil for results not
	// produced by Encode in this process (analysisio.Load, Extend).
	Stats *AnalysisStats

	// terr is the successful pass's territory state, which ICC reads and
	// Extend resumes from. Nil for results that did not come out of
	// Encode/Extend in this process (e.g. analysisio.Load).
	terr *territories
}

// territories is a pass's territory state in topological layout: node n
// sits at position pos[n], its sorted anchors are rows[rowOff[i]:rowOff[i+1]]
// for i = pos[n], and its CAV cells are at the same indices of cav. It is
// immutable once published in a Result: Extend builds fresh arrays for the
// next Result, so concurrent readers of an old epoch never observe
// mutation.
type territories struct {
	pos          []int32
	rowOff, rows []int32
	cav          []uint64
}

// row returns node n's anchors and their CAV cells.
func (t *territories) row(n callgraph.NodeID) ([]int32, []uint64) {
	i := t.pos[n]
	off, end := t.rowOff[i], t.rowOff[i+1]
	return t.rows[off:end], t.cav[off:end]
}

// Cell is one (anchor, ICC) pair of a node: the exclusive upper bound of
// the encoding space for contexts reaching the node from the anchor.
type Cell struct {
	Anchor callgraph.NodeID
	ICC    uint64
}

// ICC lists node n's inflated calling-context counts, one per anchor whose
// territory holds n, in anchor order. A resetting node reads {n: 1}: its
// piece starts afresh. Any other node reads its final CAV cells, and a
// non-resetting piece start (the entry) its reserved 1 relative to itself
// besides the cells of the pieces that flow through it. Nil when n has no
// territory or the Result carries no territory state.
func (r *Result) ICC(n callgraph.NodeID) []Cell {
	if r.terr == nil || n < 0 || int(n) >= len(r.terr.pos) {
		return nil
	}
	if r.Spec.Anchors[n] {
		return []Cell{{Anchor: n, ICC: 1}}
	}
	rows, cav := r.terr.row(n)
	if len(rows) == 0 {
		return nil
	}
	cells := make([]Cell, len(rows))
	for j, a := range rows {
		cells[j] = Cell{Anchor: callgraph.NodeID(a), ICC: cav[j]}
		if callgraph.NodeID(a) == n {
			cells[j].ICC = 1
		}
	}
	return cells
}

// ErrWidthTooSmall is wrapped by Encode when even turning every possible
// caller into an anchor cannot fit the encoding into MaxID.
var errWidthTooSmall = fmt.Errorf("core: integer width too small to encode this graph")

// Encode runs the DeltaPath analysis (Algorithm 2) on g.
func Encode(g *callgraph.Graph, opts Options) (*Result, error) {
	st, err := newRestartState(g, opts, true)
	if err != nil {
		return nil, err
	}
	// The engine (engine.go) orders the graph and builds its site schedule
	// once; each restart resumes its sweep at the new anchor.
	mem := &memPeak{enabled: opts.MeasureMemory}
	mem.sample()
	eng := newEngine(g, st, opts.EdgeProfile)
	res := &Result{}
	from := 0
	for {
		eng.rebuild(from)
		eng.replay(from)
		mem.sample()
		p := eng.sweep(from)
		mem.sample()
		if p < 0 {
			break
		}
		if from, err = eng.promote(g, st, res, p); err != nil {
			return nil, err
		}
	}
	res.finish(g, st, eng)
	mem.sample()
	stats := &AnalysisStats{
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		Sites:          g.NumSites(),
		Anchors:        len(st.an),
		SweptSites:     eng.swept,
		TerritoryCells: eng.cells,
	}
	if opts.MeasureMemory {
		stats.PeakBytes = mem.peak
		if stats.Nodes > 0 {
			stats.BytesPerNode = float64(stats.PeakBytes) / float64(stats.Nodes)
		}
	}
	res.Stats = stats
	return res, nil
}

// restartState is the input of Algorithm 2's restart loop and the anchor
// sets the loop grows: an holds the piece starts, resets the runtime-
// resetting ones.
type restartState struct {
	maxID      uint64
	comp       []int // g.SCC()
	rec        map[callgraph.Edge]bool
	topo       []callgraph.NodeID
	an, resets map[callgraph.NodeID]bool
}

// newRestartState validates g and seeds the first pass's anchor sets: the
// entry, the recursive-edge targets, the forced anchors and the context
// roots, plus, with orphans, the roots of code no anchor reaches.
func newRestartState(g *callgraph.Graph, opts Options, orphans bool) (*restartState, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	entry, _ := g.Entry()
	comp, rec := recursiveEdges(g)
	topo, err := g.TopoOrder(rec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// An: entry + recursive-edge targets; overflow anchors join later.
	an := map[callgraph.NodeID]bool{entry: true}
	recTargets := map[callgraph.NodeID]bool{}
	for e := range rec {
		an[e.Callee] = true
		recTargets[e.Callee] = true
	}
	for _, n := range opts.ForceAnchors {
		an[n] = true
	}
	// Additional context roots (executor-task entries) are piece starts.
	for _, n := range g.ContextRoots() {
		an[n] = true
	}
	if orphans {
		addOrphanAnchors(g, comp, an)
	}
	resets := resetAnchors(an, entry, recTargets[entry])
	for _, n := range opts.ForceAnchors {
		resets[n] = true
	}
	return &restartState{maxID: maxID, comp: comp, rec: rec, topo: topo, an: an, resets: resets}, nil
}

// recursiveEdges returns g.SCC() and g.RecursiveEdges(), the second read
// off the first so Tarjan runs once for callers that need both.
func recursiveEdges(g *callgraph.Graph) ([]int, map[callgraph.Edge]bool) {
	comp := g.SCC()
	nb := g.Numbering()
	rec := make(map[callgraph.Edge]bool)
	for i, c := range nb.Callee {
		if comp[nb.Caller[i]] == comp[c] {
			rec[nb.Edge(int32(i))] = true
		}
	}
	return comp, rec
}

// promote is Algorithm 2's restart step, which Encode and Extend share: p,
// the overflowing caller of a failed pass, becomes a resetting anchor in
// st and the engine and is recorded in res, and the next pass resumes at
// p's position. It fails when p already resets: the next pass would
// overflow in the same place.
func (eng *engine) promote(g *callgraph.Graph, st *restartState, res *Result, p callgraph.NodeID) (int, error) {
	if st.resets[p] {
		return 0, fmt.Errorf("%w: overflow at anchor %s with limit %d",
			errWidthTooSmall, g.Name(p), st.maxID)
	}
	st.an[p], st.resets[p] = true, true
	eng.anB[p], eng.resetsB[p] = true, true
	res.OverflowAnchors = append(res.OverflowAnchors, p)
	res.Restarts++
	return int(eng.pos[p]), nil
}

// resetAnchors derives the runtime-resetting anchor set (the Spec.Anchors
// to be) from the piece starts: every piece start except the entry. The
// entry starts the bottom piece without a runtime reset — a non-recursive
// call into it continues the caller's piece, exactly as the decoder and
// encoding.Validate model it — so it bounds no other anchor's territory.
// A recursive entry must reset (re-entries push), and overflow promotion
// may add the entry later.
func resetAnchors(an map[callgraph.NodeID]bool, entry callgraph.NodeID,
	entryResets bool) map[callgraph.NodeID]bool {
	resets := make(map[callgraph.NodeID]bool, len(an))
	for n := range an {
		if n != entry || entryResets {
			resets[n] = true
		}
	}
	return resets
}

// addOrphanAnchors extends the anchor set with every node that is not
// forward-reachable from any anchor. Such nodes exist under selective
// encoding: an application method invoked only through excluded library
// code (Figure 7's G) has no incoming edges in the analysed graph, yet
// pieces START there at runtime (the hazardous-UCP response). Making it an
// anchor gives it a reserved width of 1 and a territory of its own, so the
// ranges its outgoing edges occupy downstream stay disjoint from every
// other range. Only the roots of the uncovered region (nodes all of whose
// forward predecessors are also uncovered — in a DAG, ultimately nodes
// with no forward in-edges at all) need to be added: their territories
// cover the rest. comp is g.SCC(): an edge inside a component is recursive.
func addOrphanAnchors(g *callgraph.Graph, comp []int, an map[callgraph.NodeID]bool) {
	covered := make([]bool, g.NumNodes())
	var work []callgraph.NodeID
	for r := range an {
		covered[r] = true
		work = append(work, r)
	}
	expand := func() {
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, e := range g.Out(v) {
				if comp[v] == comp[e.Callee] || covered[e.Callee] {
					continue
				}
				covered[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	expand()
	forwardIn := func(n callgraph.NodeID) bool {
		for _, e := range g.In(n) {
			if comp[e.Caller] != comp[n] {
				return true
			}
		}
		return false
	}
	for _, n := range g.Nodes() {
		if covered[n] || forwardIn(n) {
			continue
		}
		an[n] = true
		covered[n] = true
		work = append(work, n)
		expand()
	}
}

// orderIn returns the in-edges sorted hottest-first by the profile (stable
// for ties and for absent profiles, preserving insertion order).
func orderIn(in []callgraph.Edge, profile map[callgraph.Edge]uint64) []callgraph.Edge {
	if len(profile) == 0 || len(in) < 2 {
		return in
	}
	out := append([]callgraph.Edge(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		return profile[out[i]] > profile[out[j]]
	})
	return out
}

// finish assembles the Result of a successful pass. The Spec takes the
// engine's addition values without a copy, and the Result keeps the
// territory rows and CAV cells; the engine is done with both. Every write
// raises its cell, so the largest final cell is the largest value the pass
// wrote.
func (res *Result) finish(g *callgraph.Graph, st *restartState, eng *engine) {
	spec := &encoding.Spec{
		Graph:   g,
		SiteAV:  eng.av,
		Push:    make(map[callgraph.Edge]encoding.PieceKind, len(st.rec)),
		Anchors: make(map[callgraph.NodeID]bool, len(st.resets)),
	}
	for e := range st.rec {
		spec.Push[e] = encoding.PieceRecursion
	}
	// Runtime anchors: exactly the resetting piece starts — every anchor
	// except a non-recursive, non-promoted entry.
	for n := range st.resets {
		spec.Anchors[n] = true
	}
	res.Spec = spec
	res.PieceStarts = st.an
	var maxCAV uint64
	for _, v := range eng.cav {
		maxCAV = max(maxCAV, v)
	}
	if maxCAV > 0 {
		res.MaxID = maxCAV - 1
	}
	res.UnifiedVirtualSites = g.NumVirtualSites()
	res.terr = &territories{pos: eng.pos, rowOff: eng.rowOff, rows: eng.rowBuf, cav: eng.cav}
}
