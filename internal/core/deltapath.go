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

	// BatchAnchors changes the restart policy of Algorithm 2 (an
	// engineering extension, not in the paper): instead of restarting
	// after the first overflow, the pass continues with the overflowing
	// range marked dead, collecting every distinct overflowing caller of
	// the round, and all of them become anchors before the single
	// restart. On graphs without hub structure — where pressure crosses
	// the integer limit across a wide frontier — this turns one restart
	// per anchor into one restart per round (see
	// BenchmarkAblationBatchAnchors). Anchor sets can be slightly larger
	// than the sequential policy's.
	BatchAnchors bool

	// MeasureMemory enables live-heap sampling at analysis checkpoints;
	// the high-water mark is reported in Result.Stats.PeakBytes. Off by
	// default: runtime.ReadMemStats stops the world.
	MeasureMemory bool
}

// Result is the outcome of the DeltaPath static analysis.
type Result struct {
	// Spec carries everything the runtime and the decoder need.
	Spec *encoding.Spec

	// ICC maps node -> anchor -> inflated calling-context count: the
	// exclusive upper bound of the encoding space for contexts reaching
	// the node from that anchor.
	ICC map[callgraph.NodeID]map[callgraph.NodeID]uint64

	// NAnchors lists, per node, the anchors whose territory contains it.
	NAnchors map[callgraph.NodeID][]callgraph.NodeID

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

	// inc retains the successful pass's internal state (final CAV cells,
	// edge territories, recursive-edge set) so Extend can recompute only
	// the dirty territory of a graph delta. Nil for results that did not
	// come out of Encode/Extend in this process (e.g. analysisio.Load).
	inc *incState
}

// incState is the retained per-pass state Extend needs. All maps are
// treated as immutable once published in a Result: Extend builds fresh
// (copy-on-write) maps for the next Result, so concurrent readers of an
// old epoch never observe mutation.
type incState struct {
	cav      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	eanchors map[callgraph.Edge][]callgraph.NodeID
	rec      map[callgraph.Edge]bool
}

// ErrWidthTooSmall is wrapped by Encode when even turning every possible
// caller into an anchor cannot fit the encoding into MaxID.
var errWidthTooSmall = fmt.Errorf("core: integer width too small to encode this graph")

// Encode runs the DeltaPath analysis (Algorithm 2) on g.
func Encode(g *callgraph.Graph, opts Options) (*Result, error) {
	st, err := newRestartState(g, opts)
	if err != nil {
		return nil, err
	}
	// The engine (engine.go) orders the graph and builds its site schedule
	// once; each restart resumes its sweep at the earliest new anchor.
	mem := &memPeak{enabled: opts.MeasureMemory}
	mem.sample()
	eng := newEngine(g, st, opts)
	res := &Result{}
	from := 0
	for {
		eng.rebuild(from)
		eng.replay(from)
		mem.sample()
		overflowAt := eng.sweep(from)
		mem.sample()
		if overflowAt != nil {
			added := len(res.OverflowAnchors)
			if err := st.promote(g, res, overflowAt); err != nil {
				return nil, err
			}
			from = eng.promote(res.OverflowAnchors[added:])
			continue
		}
		res.finish(g, st.rec, st.an, st.resets, eng.toPass())
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

// newRestartState validates g and seeds the first pass's anchor sets.
func newRestartState(g *callgraph.Graph, opts Options) (*restartState, error) {
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
	addOrphanAnchors(g, comp, an)
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

// promote turns the overflowing callers of a failed pass into resetting
// anchors and records them in res. It fails when none of them is new: the
// next pass would overflow in the same place.
func (st *restartState) promote(g *callgraph.Graph, res *Result, overflowAt []callgraph.NodeID) error {
	progress := false
	for _, p := range overflowAt {
		if !st.resets[p] {
			st.an[p] = true
			st.resets[p] = true
			res.OverflowAnchors = append(res.OverflowAnchors, p)
			progress = true
		}
	}
	if !progress {
		return fmt.Errorf("%w: overflow at anchor %s with limit %d",
			errWidthTooSmall, g.Name(overflowAt[0]), st.maxID)
	}
	res.Restarts++
	return nil
}

// pass is the state of one analysis attempt.
type pass struct {
	nanchors map[callgraph.NodeID][]callgraph.NodeID
	eanchors map[callgraph.Edge][]callgraph.NodeID
	cav      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	icc      map[callgraph.NodeID]map[callgraph.NodeID]uint64
	av       map[callgraph.Site]uint64
	maxCAV   uint64

	// batch mode: dead marks (node, anchor) entries whose range
	// overflowed; they are excluded from further propagation so the pass
	// can keep collecting overflow sites. overflows lists the callers to
	// anchor, in discovery order.
	batch     bool
	dead      map[callgraph.NodeID]map[callgraph.NodeID]bool
	overflows []callgraph.NodeID
	seenOver  map[callgraph.NodeID]bool
}

func (p *pass) markDead(n, r callgraph.NodeID) {
	m := p.dead[n]
	if m == nil {
		m = make(map[callgraph.NodeID]bool)
		p.dead[n] = m
	}
	m[r] = true
}

func (p *pass) isDead(n, r callgraph.NodeID) bool { return p.dead[n][r] }

func (p *pass) recordOverflow(n callgraph.NodeID) {
	if !p.seenOver[n] {
		p.seenOver[n] = true
		p.overflows = append(p.overflows, n)
	}
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

// recursiveEntry reports whether the entry is the target of a recursive
// edge (so re-entries push and the entry must reset).
func recursiveEntry(rec map[callgraph.Edge]bool, entry callgraph.NodeID) bool {
	for e := range rec {
		if e.Callee == entry {
			return true
		}
	}
	return false
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
			if p.batch && p.isDead(e.Callee, r) {
				continue
			}
			if v := p.cav[e.Callee][r]; v > a {
				a = v
			}
		}
	}
	overflowed := false
	for _, e := range targets {
		if rec[e] {
			continue
		}
		iccP := p.icc[e.Caller]
		for _, r := range p.eanchors[e] {
			w := iccP[r]
			if w > maxID-a {
				if !p.batch {
					return 0, true
				}
				// Batch mode: record the caller, kill this range, and
				// keep scanning for more overflow sites this round.
				p.recordOverflow(e.Caller)
				p.markDead(e.Callee, r)
				overflowed = true
				continue
			}
			v := w + a
			if !(p.batch && p.isDead(e.Callee, r)) {
				p.cav[e.Callee][r] = v
			}
			if v > p.maxCAV {
				p.maxCAV = v
			}
		}
	}
	return a, overflowed
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

// finish assembles the Result from a successful pass.
func (res *Result) finish(g *callgraph.Graph, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, p *pass) {

	spec := &encoding.Spec{
		Graph:   g,
		SiteAV:  p.av,
		Push:    make(map[callgraph.Edge]encoding.PieceKind, len(rec)),
		Anchors: make(map[callgraph.NodeID]bool, len(resets)),
	}
	for e := range rec {
		spec.Push[e] = encoding.PieceRecursion
	}
	// Runtime anchors: exactly the resetting piece starts — every anchor
	// except a non-recursive, non-promoted entry.
	for n := range resets {
		spec.Anchors[n] = true
	}
	res.Spec = spec
	res.ICC = p.icc
	res.NAnchors = p.nanchors
	res.PieceStarts = an
	if p.maxCAV > 0 {
		res.MaxID = p.maxCAV - 1
	}
	res.UnifiedVirtualSites = g.NumVirtualSites()
	res.inc = &incState{cav: p.cav, eanchors: p.eanchors, rec: rec}
}
