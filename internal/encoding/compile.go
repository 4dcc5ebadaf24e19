package encoding

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"deltapath/internal/callgraph"
	"deltapath/internal/obs"
)

// This file is the decode path: Compile lowers the spec's in-rows (BuildRows,
// the rows the verifier proves) into flat tables — each row's callers and
// addition values, and edge-index bitsets for the anchor territories — built
// once and read-only afterwards (a territory row first needed at decode time
// is published once, atomically), so decoding needs no locks, no map
// lookups, and (through DecodeInto plus a pooled scratch arena) no
// steady-state allocations. The tests hold it identical to a map-based
// reference decoder on every input, valid or corrupt.

// CompiledDecoder decodes contexts from flat precomputed tables. It is
// deterministic and instant (no search), the paper's headline advantage
// over Breadcrumbs-style probabilistic decoding. Its only mutable state
// after Compile returns is the territory row of a piece start first seen at
// decode time, built once and published through an atomic pointer, so it is
// safe for unlimited concurrent use without locks (the sync.Pool scratch
// arena is internally concurrent).
type CompiledDecoder struct {
	spec     *Spec
	numNodes int32

	// The in-rows of BuildRows: node n's forward in-edges occupy slots
	// inStart[n]..inStart[n+1] in ascending (AV, caller, label) order,
	// which pickEdge reads from the top. Each forward edge holds exactly one
	// slot (in its callee's row), so the slot number doubles as the dense
	// edge index keying the territory bitsets.
	inStart  []int32
	inCaller []int32
	inAV     []uint64

	// Territory bitsets, one slot per node: bit s of node v's row is set
	// iff slot s's edge is reachable from v without leaving through another
	// anchor (Section 3.2's bounded DFS). Compile fills the rows of the
	// statically known piece starts (anchors, the entry, the context
	// roots); any other start — a UCP resume point — gets its row from the
	// same DFS on its first decode. published counts the rows published at
	// decode time and is capped at built, the number Compile filled, so
	// records naming arbitrary start nodes cannot grow the store past twice
	// its compiled size; past the cap a row is built for one decode and
	// dropped.
	//
	// rows is nil when the spec has no anchors: then every edge qualifies
	// and the filter would be pure overhead.
	terrWords int32
	rows      []atomic.Pointer[[]uint64]
	built     int32
	published atomic.Int32

	// The territory DFS walks the numbering's out-rows (outStart, callee),
	// setting the in-row slot of each edge id it crosses (slot is -1 for a
	// push edge), and retreats at the rows' anchor bitset.
	outStart []int32
	callee   []int32
	slot     []int32
	anchor   []uint64

	// scratch pools per-decode working space (piece node stack + segment
	// table), so a warm DecodeInto performs zero allocations.
	scratch sync.Pool

	// Observability hooks (nil = no-op): every table lookup is a
	// dp_decode_memo_hits_total, and every territory row built at decode
	// time a dp_decode_memo_misses_total.
	memoHits   *obs.Counter
	memoMisses *obs.Counter
	frames     *obs.Histogram
}

// pieceSeg locates one decoded piece inside the scratch arena's flat node
// buffer, in entry-to-end order.
type pieceSeg struct {
	off, n int32
}

// decodeScratch is the reusable working space of one decode: the bottom-up
// node stack of the piece being decoded, the flat buffer holding every
// finished piece, and the per-piece segment table.
type decodeScratch struct {
	nodes []callgraph.NodeID
	flat  []callgraph.NodeID
	segs  []pieceSeg
}

// Compile lowers spec into a CompiledDecoder. Cost is O(V + E log E) for
// the rows plus, only when the spec has anchors, one O(V + E) territory DFS
// per statically known piece start — paid once per analysis, amortized over
// every decode.
func Compile(spec *Spec) *CompiledDecoder {
	r := BuildRows(spec)
	c := &CompiledDecoder{
		spec:     spec,
		numNodes: int32(len(r.InStart) - 1),
		inStart:  r.InStart,
		inCaller: r.InCaller,
		inAV:     r.InAV,
	}
	c.scratch.New = func() any { return &decodeScratch{} }
	if len(spec.Anchors) > 0 {
		c.compileTerritories(r)
	}
	return c
}

// compileTerritories keeps what the territory DFS reads and fills the rows
// of the piece starts known statically: every anchor, the entry, and the
// context roots. Any other start is filled on first use (see territory).
func (c *CompiledDecoder) compileTerritories(r *Rows) {
	n := int(c.numNodes)
	nb := c.spec.Graph.Numbering()
	c.terrWords = int32((len(r.InEdge) + 63) / 64)
	c.outStart, c.callee, c.anchor = nb.OutStart, nb.Callee, r.Anchor
	c.slot = make([]int32, len(r.Push))
	for e := range c.slot {
		c.slot[e] = -1
	}
	for s, e := range r.InEdge {
		c.slot[e] = int32(s)
	}

	var starts []int32
	for v := int32(0); int(v) < n; v++ {
		if c.isAnchor(v) {
			starts = append(starts, v)
		}
	}
	if e, ok := c.spec.Graph.Entry(); ok && int(e) < n {
		starts = append(starts, int32(e))
	}
	for _, root := range c.spec.Graph.ContextRoots() {
		if root >= 0 && int(root) < n {
			starts = append(starts, int32(root))
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)

	// The compiled rows share one backing array and one header array.
	words := int(c.terrWords)
	bits := make([]uint64, len(starts)*words)
	heads := make([][]uint64, len(starts))
	seen := make([]int32, n)
	var work []int32
	c.rows = make([]atomic.Pointer[[]uint64], n)
	for i, start := range starts {
		heads[i] = bits[i*words : (i+1)*words : (i+1)*words]
		work = c.fillTerritory(start, heads[i], seen, int32(i+1), work)
		c.rows[start].Store(&heads[i])
	}
	c.built = int32(len(starts))
}

func (c *CompiledDecoder) isAnchor(v int32) bool { return c.anchor[v>>6]&(1<<(v&63)) != 0 }

// fillTerritory runs the bounded territory DFS from start, setting the
// dense edge-index bit of every edge inside the territory. seen is an
// epoch-stamped visited array (epoch must be nonzero, and unique per call
// for a shared array); work is the reusable stack, returned for reuse.
func (c *CompiledDecoder) fillTerritory(start int32, bits []uint64, seen []int32, epoch int32, work []int32) []int32 {
	seen[start] = epoch
	work = append(work[:0], start)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v != start && c.isAnchor(v) {
			continue // retreat at other anchors
		}
		for e := c.outStart[v]; e < c.outStart[v+1]; e++ {
			s := c.slot[e]
			if s < 0 {
				continue // a push edge starts a piece of its own
			}
			bits[s>>6] |= 1 << (uint(s) & 63)
			if u := c.callee[e]; seen[u] != epoch {
				seen[u] = epoch
				work = append(work, u)
			}
		}
	}
	return work
}

// Observe resolves the decoder's metric hooks from reg (nil disables): one
// dp_decode_memo_hits_total per table lookup, one
// dp_decode_memo_misses_total per territory row built at decode time, and
// the decoded-context size histogram.
func (c *CompiledDecoder) Observe(reg *obs.Registry) {
	c.memoHits = reg.Counter(obs.MetricDecodeMemoHits)
	c.memoMisses = reg.Counter(obs.MetricDecodeMemoMisses)
	c.frames = reg.Histogram(obs.MetricDecodeFrames, obs.DefaultDepthBuckets)
}

// Decode recovers the full calling context whose encoding is st and which
// ends at node end, ordered from the program entry (index 0) to end.
func (c *CompiledDecoder) Decode(st *State, end callgraph.NodeID) ([]Frame, error) {
	return c.DecodeInto(nil, st, end)
}

// DecodeInto is Decode writing into dst's storage (dst is truncated first;
// pass the previous result to reuse its capacity). With a warmed buffer the
// steady-state batch-decode loop performs zero allocations per context.
func (c *CompiledDecoder) DecodeInto(dst []Frame, st *State, end callgraph.NodeID) ([]Frame, error) {
	if !c.valid(end) || !c.valid(st.Start) {
		return nil, fmt.Errorf("%w: piece boundary node out of range", ErrCorruptEncoding)
	}
	sc := c.scratch.Get().(*decodeScratch)
	defer c.scratch.Put(sc)
	sc.flat = sc.flat[:0]
	sc.segs = sc.segs[:0]

	// Pieces decode live first, then the stack from the innermost
	// suspended piece outward, so a corrupt record fails on its innermost
	// bad piece.
	seg, err := c.decodePiece(sc, st.ID, end, st.Start)
	if err != nil {
		return nil, err
	}
	sc.segs = append(sc.segs, seg)
	innerStart := st.Start
	for i := len(st.Stack) - 1; i >= 0; i-- {
		el := &st.Stack[i]
		seg, err := c.joinPiece(sc, el, innerStart)
		if err != nil {
			return nil, fmt.Errorf("piece %d (%s): %w", i, el.Kind, err)
		}
		sc.segs = append(sc.segs, seg)
		innerStart = el.OuterStart
	}
	out := c.assemble(dst, sc, st.Stack, true)
	c.frames.Observe(uint64(len(out)))
	return out, nil
}

// DecodeBestEffort recovers as much of the context as the state still
// encodes: the longest decodable suffix, behind a Gap frame when outer
// pieces are lost. It never fails — an undecodable live piece degrades to
// the end frame behind a gap — and reports whether the full context was
// recovered, so one bad piece of a corrupt log record costs the outer
// frames, not the whole record. It is the cold salvage path, so it
// allocates its result freshly.
func (c *CompiledDecoder) DecodeBestEffort(st *State, end callgraph.NodeID) ([]Frame, bool) {
	if !c.valid(end) {
		return []Frame{{Gap: true}}, false
	}
	if !c.valid(st.Start) {
		return []Frame{{Gap: true}, {Node: end}}, false
	}
	sc := c.scratch.Get().(*decodeScratch)
	defer c.scratch.Put(sc)
	sc.flat = sc.flat[:0]
	sc.segs = sc.segs[:0]

	seg, err := c.decodePiece(sc, st.ID, end, st.Start)
	if err != nil {
		return []Frame{{Gap: true}, {Node: end}}, false
	}
	sc.segs = append(sc.segs, seg)
	innerStart := st.Start
	complete := true
	joined := st.Stack
	for i := len(st.Stack) - 1; i >= 0; i-- {
		el := &st.Stack[i]
		seg, err := c.joinPiece(sc, el, innerStart)
		if err != nil {
			complete = false
			joined = st.Stack[i+1:]
			break
		}
		sc.segs = append(sc.segs, seg)
		innerStart = el.OuterStart
	}
	var out []Frame
	if !complete {
		out = append(out, Frame{Gap: true})
	}
	return c.assemble(out, sc, joined, false), complete
}

// joinPiece validates and decodes one suspended piece: its boundary nodes,
// its own path, then its kind. innerStart is the start node of the piece
// immediately inside el (whose first decoded frame the anchor-kind check
// compares against).
func (c *CompiledDecoder) joinPiece(sc *decodeScratch, el *Element, innerStart callgraph.NodeID) (pieceSeg, error) {
	if !c.valid(el.OuterEnd) || !c.valid(el.OuterStart) {
		return pieceSeg{}, fmt.Errorf("%w: piece boundary node out of range", ErrCorruptEncoding)
	}
	seg, err := c.decodePiece(sc, el.DecodeID, el.OuterEnd, el.OuterStart)
	if err != nil {
		return pieceSeg{}, err
	}
	switch el.Kind {
	case PieceAnchor:
		// The outer piece ends at the anchor, which must also be the
		// first frame of the inner piece (assemble drops the duplicate).
		if innerStart != el.OuterEnd {
			return pieceSeg{}, fmt.Errorf("%w: anchor piece does not start at %s",
				ErrCorruptEncoding, c.spec.Graph.Name(el.OuterEnd))
		}
	case PieceRecursion, PiecePruned, PieceUCP:
	default:
		return pieceSeg{}, fmt.Errorf("%w: unexpected piece kind %v on stack", ErrCorruptEncoding, el.Kind)
	}
	return seg, nil
}

// assemble concatenates the decoded segments outermost-first into dst.
// stack holds the elements whose pieces were decoded (joined suffix of the
// state's stack); sc.segs is [live, innermost suspended, ..., outermost].
// The transition after element i's piece follows el.Kind: an anchor's
// duplicated boundary frame is dropped, a UCP inserts a Gap frame.
func (c *CompiledDecoder) assemble(dst []Frame, sc *decodeScratch, stack []Element, reuse bool) []Frame {
	if reuse {
		dst = dst[:0]
	}
	k := len(stack)
	skip := false
	for j := k; j >= 0; j-- {
		seg := sc.segs[j]
		nodes := sc.flat[seg.off : seg.off+seg.n]
		if skip {
			nodes = nodes[1:]
			skip = false
		}
		for _, nd := range nodes {
			dst = append(dst, Frame{Node: nd})
		}
		if j >= 1 {
			switch stack[k-j].Kind {
			case PieceAnchor:
				skip = true
			case PieceUCP:
				dst = append(dst, Frame{Gap: true})
			}
		}
	}
	return dst
}

// decodePiece recovers one piece, the acyclic path from start to end whose
// addition values sum to id: it walks bottom-up through the in-rows, then
// writes the path into the scratch arena in entry-to-end order.
func (c *CompiledDecoder) decodePiece(sc *decodeScratch, id uint64, end, start callgraph.NodeID) (pieceSeg, error) {
	terr := c.territory(start)
	sc.nodes = append(sc.nodes[:0], end)
	n := end
	maxSteps := int(c.numNodes) + 1
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return pieceSeg{}, fmt.Errorf("%w: decode did not terminate after %d steps", ErrCorruptEncoding, steps)
		}
		if n == start {
			if id != 0 {
				return pieceSeg{}, fmt.Errorf("%w: reached piece start %s with residual id %d",
					ErrResidualID, c.spec.Graph.Name(start), id)
			}
			break
		}
		slot, ok := c.pickEdge(n, id, terr)
		if !ok {
			return pieceSeg{}, fmt.Errorf("%w: no in-edge of %s matches id %d (piece start %s)",
				ErrNoMatchingEdge, c.spec.Graph.Name(n), id, c.spec.Graph.Name(start))
		}
		id -= c.inAV[slot]
		n = callgraph.NodeID(c.inCaller[slot])
		sc.nodes = append(sc.nodes, n)
	}
	seg := pieceSeg{off: int32(len(sc.flat)), n: int32(len(sc.nodes))}
	for i := len(sc.nodes) - 1; i >= 0; i-- {
		sc.flat = append(sc.flat, sc.nodes[i])
	}
	return seg, nil
}

// pickEdge returns the slot of n's in-edge, within the territory, with the
// largest AV not exceeding id — the decoding rule of Section 2, restricted
// to the piece's territory as Section 3.2 requires. The row ascends by
// (AV, caller, label) and is read from the top, so among equal AVs the
// largest (caller, label) wins. Long rows find the last slot with AV ≤ id
// by binary search, and the territory filter scans down from there.
func (c *CompiledDecoder) pickEdge(n callgraph.NodeID, id uint64, terr []uint64) (int32, bool) {
	c.memoHits.Inc()
	lo, hi := c.inStart[n], c.inStart[n+1]
	if hi-lo > 8 {
		row := c.inAV[lo:hi]
		hi = lo + int32(sort.Search(len(row), func(k int) bool { return row[k] > id }))
	}
	for s := hi - 1; s >= lo; s-- {
		if c.inAV[s] > id {
			continue // short rows skip the search
		}
		if terr != nil && terr[s>>6]&(1<<(uint(s)&63)) == 0 {
			continue
		}
		return s, true
	}
	return 0, false
}

// territory returns start's territory bitset row, or nil when the spec has
// no anchors (no restriction). A start without a row gets one from a fresh
// bounded DFS, counted as a memo miss, and publishes it unless the cap is
// reached: the count is reserved before the row is swapped in and given
// back on a lost race, so it never passes built.
func (c *CompiledDecoder) territory(start callgraph.NodeID) []uint64 {
	if c.rows == nil {
		return nil
	}
	slot := &c.rows[start]
	if row := slot.Load(); row != nil {
		c.memoHits.Inc()
		return *row
	}
	c.memoMisses.Inc()
	row := make([]uint64, c.terrWords)
	c.fillTerritory(int32(start), row, make([]int32, c.numNodes), 1, nil)
	for {
		n := c.published.Load()
		if n >= c.built {
			return row
		}
		if c.published.CompareAndSwap(n, n+1) {
			break
		}
	}
	if !slot.CompareAndSwap(nil, &row) {
		c.published.Add(-1)
	}
	return row
}

// Spec returns the spec the decoder was compiled from.
func (c *CompiledDecoder) Spec() *Spec { return c.spec }

// valid reports whether n names a node of the spec's graph.
func (c *CompiledDecoder) valid(n callgraph.NodeID) bool {
	return n >= 0 && int32(n) < c.numNodes
}

// DecodeNames is Decode rendering node names, with gaps shown as "...".
func (c *CompiledDecoder) DecodeNames(st *State, end callgraph.NodeID) ([]string, error) {
	frames, err := c.Decode(st, end)
	if err != nil {
		return nil, err
	}
	return c.Names(frames), nil
}

// Names renders decoded frames as node names, with gaps shown as "...".
func (c *CompiledDecoder) Names(frames []Frame) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		if f.Gap {
			out[i] = "..."
		} else {
			out[i] = c.spec.Graph.Name(f.Node)
		}
	}
	return out
}
