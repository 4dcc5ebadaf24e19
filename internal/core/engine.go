// Analysis engine: the one Algorithm 2 sweep Encode runs, at every graph
// size, on one goroutine.
//
// The reference map sweep (runOnce, kept in the tests as the oracle this
// engine is checked against) processes call sites in the graph's canonical
// Kahn order, and every downstream consumer — golden files, .dpa fixtures,
// Extend's bit-exact replay — depends on the addition values that order
// produces. The engine runs the same schedule over flat arrays:
//
//   - Territories by the union rule. Anchor r's territory holds t when r
//     reaches t along forward edges without passing through another
//     resetting anchor. So t's row, the sorted anchors whose territory
//     holds it, is {t} if t is a piece start, united over t's forward
//     in-edges (c, t) with {c} if c resets and row(c) otherwise; that term
//     is also the edge's own row. Rows are therefore built in topological
//     order, one in-edge at a time, instead of by one DFS per anchor.
//   - Topological layout. Node rows, their CAV cells and the entries of
//     their in-edges are laid out in their node's topological order, so
//     everything at or after a position is one suffix of each array.
//   - Resume. A failed pass stops at its first overflow (batch mode
//     finishes its round). A path through the new anchor p reaches only
//     nodes after it, so no row, cell, site AV or ICC read before p
//     changes: the restart keeps that prefix, truncates the arrays at p,
//     rebuilds the suffix, replays the writes that sites swept before p
//     made into suffix cells, and sweeps on from p's task.
//
// ICC is never materialized during the sweep: reads reconstruct it from the
// caller's frozen CAV cell, which is exactly how the reference sweep builds
// the ICC map. On success the arrays are converted into the ordinary *pass
// shape, so Result, incState and Extend are byte-for-byte indistinguishable
// from the reference sweep's output.
package core

import (
	"math"
	"runtime"
	"slices"
	"sort"

	"deltapath/internal/callgraph"
)

// AnalysisStats reports the scalability characteristics of one Encode run,
// in the style of ExtendStats. Populated on every successful Encode;
// PeakBytes/BytesPerNode only when Options.MeasureMemory is set.
type AnalysisStats struct {
	Nodes   int `json:"nodes"`
	Edges   int `json:"edges"`
	Sites   int `json:"sites"`
	Anchors int `json:"anchors"` // piece starts in the final pass

	// SweptSites counts the sites the sweep computed an addition value
	// for, and TerritoryCells the (node, anchor) cells it built, each
	// summed over Algorithm 2's passes. A restart resumes at its new
	// anchor, so both stay close to the final pass's own counts.
	SweptSites     int `json:"swept_sites"`
	TerritoryCells int `json:"territory_cells"`

	// PeakBytes is the high-water live-heap mark observed at engine
	// checkpoints (after each territory build, after each pass, after
	// Result assembly). It includes the input graph itself — that is the
	// honest budget an operator must provision. BytesPerNode divides by
	// the node count.
	PeakBytes    uint64  `json:"peak_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// memPeak samples the live heap at engine checkpoints when enabled.
type memPeak struct {
	enabled bool
	peak    uint64
}

func (m *memPeak) sample() {
	if !m.enabled {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peak {
		m.peak = ms.HeapAlloc
	}
}

// edgeAnchor is one entry of an edge's territory row: for edge (c, t) and
// anchor r, the cav indices of cells (t, r) and (c, r). callerCell is -1
// when c resets, because then r == c and the read is c's reserved 1.
type edgeAnchor struct {
	anchor, calleeCell, callerCell int32
}

// engine is the sweep's state. The graph-only part (topological positions,
// forward in-edges, the site schedule) is built once; the territory rows,
// CAV cells, in-edge entries and site AVs survive Algorithm 2's restarts,
// each restart truncating them at its new anchor's position.
type engine struct {
	// nb is the graph's numbering: edge ids are out-row slots in AddEdge
	// order, site ids follow callgraph.Sites() order, and every other array
	// is keyed by them.
	nb   *callgraph.Numbering
	topo []callgraph.NodeID
	pos  []int32 // node -> topological position

	// The node at position i has forward (non-recursive) in-edges
	// inBuf[inOff[i]:inOff[i+1]] and its task, the sites the reference sweep assigns to it, is
	// taskBuf[taskOff[i]:taskOff[i+1]], so a site's index in taskBuf is its
	// sequence number.
	inOff, inBuf     []int32
	taskOff, taskBuf []int32

	maxID   uint64
	batch   bool
	anB     []bool // piece starts
	resetsB []bool // the runtime-resetting piece starts

	// Territory state, by position: the node at position i has the sorted
	// anchors rowBuf[rowOff[i]:rowOff[i+1]], their CAV cells at the same
	// indices of cav (and, in batch mode, of dead, marking killed cells),
	// and its in-edges' entries ent[entOff[i]:entOff[i+1]]. Edge ei's own
	// entries are ent[eOff[ei]:eEnd[ei]]; a recursive edge has none.
	rowOff, rowBuf []int32
	cav            []uint64
	dead           []bool
	entOff         []int32
	ent            []edgeAnchor
	eOff, eEnd     []int32

	av []uint64 // by site

	// Batch mode: each overflowing caller's smallest sequence number (-1
	// for none), and the callers that have one.
	overSeq []int32
	over    []int32

	// Row-building scratch, by anchor: mark stamps anchors already in the
	// row being united (current stamp epoch), idx holds the cav index of
	// each anchor of the row whose in-edge entries are being filled.
	mark  []int32
	epoch int32
	idx   []int32

	swept, cells int // AnalysisStats.SweptSites, TerritoryCells
}

// newEngine groups the graph's forward in-edges by their callee's position
// and builds the site schedule: each site at its first-encountered target
// in Kahn order, forward in-edges in orderIn order, exactly as the
// reference sweep assigns sites.
func newEngine(g *callgraph.Graph, st *restartState, opts Options) *engine {
	nb := g.Numbering()
	nn, ne, ns := g.NumNodes(), nb.NumEdges(), nb.NumSites()
	eng := &engine{
		nb:      nb,
		topo:    st.topo,
		pos:     make([]int32, nn),
		inOff:   make([]int32, nn+1),
		taskOff: make([]int32, nn+1),
		taskBuf: make([]int32, 0, ns),
		maxID:   st.maxID,
		batch:   opts.BatchAnchors,
		anB:     make([]bool, nn),
		resetsB: make([]bool, nn),
		rowOff:  make([]int32, nn+1),
		entOff:  make([]int32, nn+1),
		eOff:    make([]int32, ne),
		eEnd:    make([]int32, ne),
		av:      make([]uint64, ns),
		mark:    make([]int32, nn),
		idx:     make([]int32, nn),
	}
	for i, n := range st.topo {
		eng.pos[n] = int32(i)
	}
	rec := make([]bool, ne) // recursive (intra-SCC) edges
	for i, c := range nb.Callee {
		if rec[i] = st.comp[nb.Caller[i]] == st.comp[c]; !rec[i] {
			eng.inOff[eng.pos[c]+1]++
		}
	}
	for i := 0; i < nn; i++ {
		eng.inOff[i+1] += eng.inOff[i]
	}
	eng.inBuf = make([]int32, eng.inOff[nn])
	fill := slices.Clone(eng.inOff[:nn])
	for i, c := range nb.Callee {
		if !rec[i] {
			eng.inBuf[fill[eng.pos[c]]] = int32(i)
			fill[eng.pos[c]]++
		}
	}

	scheduled := make([]bool, ns)
	for i, n := range st.topo {
		eng.taskOff[i] = int32(len(eng.taskBuf))
		for _, e := range orderIn(g.In(n), opts.EdgeProfile) {
			if st.comp[e.Caller] == st.comp[e.Callee] {
				continue // recursive
			}
			if s := nb.SiteIndex(e.Site()); !scheduled[s] {
				scheduled[s] = true
				eng.taskBuf = append(eng.taskBuf, s)
			}
		}
	}
	eng.taskOff[nn] = int32(len(eng.taskBuf))

	for n := range st.an {
		eng.anB[n] = true
	}
	for n := range st.resets {
		eng.resetsB[n] = true
	}
	if eng.batch {
		eng.overSeq = make([]int32, nn)
		for i := range eng.overSeq {
			eng.overSeq[i] = -1
		}
	}
	return eng
}

// promote makes the anchors Algorithm 2 just added resetting piece starts
// and returns the position to resume from: the earliest new anchor's.
// Batch-mode overflows recorded before that position stay, because the
// resumed pass repeats them; later ones are forgotten.
func (eng *engine) promote(added []callgraph.NodeID) int {
	from := len(eng.topo)
	for _, n := range added {
		eng.anB[n], eng.resetsB[n] = true, true
		from = min(from, int(eng.pos[n]))
	}
	if eng.batch {
		keep := eng.over[:0]
		for _, c := range eng.over {
			if eng.overSeq[c] < eng.taskOff[from] {
				keep = append(keep, c)
			} else {
				eng.overSeq[c] = -1
			}
		}
		eng.over = keep
	}
	return from
}

// rebuild truncates the territory state at position from and rebuilds it
// for every later node: rows by the union rule, zeroed cells, then the
// in-edge entries, whose total is known from the rows before any is
// filled.
func (eng *engine) rebuild(from int) {
	nn := len(eng.topo)
	base := int(eng.rowOff[from])
	eng.rowBuf = eng.rowBuf[:base]
	entries := int(eng.entOff[from])
	for i := from; i < nn; i++ {
		start := len(eng.rowBuf)
		if eng.epoch == math.MaxInt32 {
			clear(eng.mark)
			eng.epoch = 0
		}
		eng.epoch++
		if t := int32(eng.topo[i]); eng.anB[t] {
			eng.unite(t)
		}
		for _, ei := range eng.inBuf[eng.inOff[i]:eng.inOff[i+1]] {
			if c := eng.nb.Caller[ei]; eng.resetsB[c] {
				eng.unite(c)
				entries++
			} else {
				row := eng.row(c)
				entries += len(row)
				for _, r := range row {
					eng.unite(r)
				}
			}
		}
		slices.Sort(eng.rowBuf[start:])
		eng.rowOff[i+1] = int32(len(eng.rowBuf))
	}

	total := len(eng.rowBuf)
	eng.cells += total - base
	eng.cav = slices.Grow(eng.cav[:base], total-base)[:total]
	clear(eng.cav[base:])
	if eng.batch {
		eng.dead = slices.Grow(eng.dead[:base], total-base)[:total]
		clear(eng.dead[base:])
	}

	k := eng.entOff[from]
	eng.ent = slices.Grow(eng.ent[:k], entries-int(k))[:entries]
	for i := from; i < nn; i++ {
		for j := eng.rowOff[i]; j < eng.rowOff[i+1]; j++ {
			eng.idx[eng.rowBuf[j]] = j
		}
		for _, ei := range eng.inBuf[eng.inOff[i]:eng.inOff[i+1]] {
			c := eng.nb.Caller[ei]
			eng.eOff[ei] = k
			if eng.resetsB[c] {
				eng.ent[k] = edgeAnchor{anchor: c, calleeCell: eng.idx[c], callerCell: -1}
				k++
			} else {
				off := eng.rowOff[eng.pos[c]]
				for j, r := range eng.row(c) {
					eng.ent[k] = edgeAnchor{anchor: r, calleeCell: eng.idx[r], callerCell: off + int32(j)}
					k++
				}
			}
			eng.eEnd[ei] = k
		}
		eng.entOff[i+1] = k
	}
}

// unite adds anchor r to the row being built unless it is already there.
func (eng *engine) unite(r int32) {
	if eng.mark[r] != eng.epoch {
		eng.mark[r] = eng.epoch
		eng.rowBuf = append(eng.rowBuf, r)
	}
}

// row returns node n's territory row.
func (eng *engine) row(n int32) []int32 {
	i := eng.pos[n]
	return eng.rowBuf[eng.rowOff[i]:eng.rowOff[i+1]]
}

// replay repeats, in sequence order, the writes that the sites swept before
// position from made into the cells of later nodes, which rebuild has just
// zeroed. Their addition values and the ICCs they read lie before from, so
// each write (and, in batch mode, each kill) comes out as it did.
func (eng *engine) replay(from int) {
	for seq, s := range eng.taskBuf[:eng.taskOff[from]] {
		eng.write(s, int32(seq), eng.av[s], int32(from))
	}
}

// sweep runs the tasks from position from on. It returns the callers to
// promote in discovery order, or nil when the pass succeeds.
func (eng *engine) sweep(from int) []callgraph.NodeID {
	end := eng.taskOff[len(eng.topo)]
	for seq := eng.taskOff[from]; seq < end; seq++ {
		s := eng.taskBuf[seq]
		a := eng.increment(s)
		eng.av[s] = a
		eng.swept++
		if c, ok := eng.write(s, seq, a, 0); !ok && !eng.batch {
			return []callgraph.NodeID{callgraph.NodeID(c)}
		}
	}
	if len(eng.over) == 0 {
		return nil
	}
	sort.Slice(eng.over, func(i, j int) bool { return eng.overSeq[eng.over[i]] < eng.overSeq[eng.over[j]] })
	callers := make([]callgraph.NodeID, len(eng.over))
	for i, c := range eng.over {
		callers[i] = callgraph.NodeID(c)
	}
	return callers
}

// increment is the first half of calculateIncrement: site s's addition
// value, the maximum over its targets' live CAV cells. Recursive edges
// have no entries, so they contribute nothing.
func (eng *engine) increment(s int32) uint64 {
	var a uint64
	for _, ei := range eng.nb.Targets(s) {
		for _, ea := range eng.ent[eng.eOff[ei]:eng.eEnd[ei]] {
			if eng.batch && eng.dead[ea.calleeCell] {
				continue
			}
			if v := eng.cav[ea.calleeCell]; v > a {
				a = v
			}
		}
	}
	return a
}

// write is the second half: for every entry of s's targets at position
// from or later, the caller's ICC plus a goes into the target's cell. It
// returns the caller and false on an overflow, after which a normal pass
// stops and batch mode kills the cell, records the caller with sequence
// number seq, and goes on.
func (eng *engine) write(s, seq int32, a uint64, from int32) (int32, bool) {
	row := eng.nb.Targets(s)
	c := eng.nb.Caller[row[0]]
	ok := true
	for _, ei := range row {
		if from > 0 && eng.pos[eng.nb.Callee[ei]] < from {
			continue
		}
		for _, ea := range eng.ent[eng.eOff[ei]:eng.eEnd[ei]] {
			w := eng.iccRead(c, ea.anchor, ea.callerCell)
			if w > eng.maxID-a {
				if !eng.batch {
					return c, false
				}
				if eng.overSeq[c] < 0 {
					eng.over = append(eng.over, c)
				}
				if eng.overSeq[c] < 0 || seq < eng.overSeq[c] {
					eng.overSeq[c] = seq
				}
				eng.dead[ea.calleeCell] = true
				ok = false
				continue
			}
			if !(eng.batch && eng.dead[ea.calleeCell]) {
				eng.cav[ea.calleeCell] = w + a
			}
		}
	}
	return c, ok
}

// iccRead reconstructs ICC[c][r] exactly as the reference sweep's icc map
// would hold it at the moment a later node reads it, for an entry of one of
// c's out-edges with anchor r and caller cell ci. A piece start reads its
// reserved 1 (r == c); otherwise c is interior to r's territory — r
// expands c, so c does not reset — and the frozen CAV cell is read, a dead
// cell reading as absent (0).
func (eng *engine) iccRead(c, r, ci int32) uint64 {
	if r == c {
		return 1
	}
	if eng.batch && eng.dead[ci] {
		return 0
	}
	return eng.cav[ci]
}

// toPass converts the state of a successful pass into the pass shape, so
// Result assembly (finish) and Extend's incState are identical to the
// reference sweep's output. Every write raises its cell, so the largest
// final cell is the largest value the pass wrote. It ends the engine: the
// arrays only the sweep reads are dropped first, so that the collector can
// reclaim them while the maps grow.
func (eng *engine) toPass() *pass {
	eng.pos, eng.inOff, eng.inBuf, eng.taskOff = nil, nil, nil, nil
	eng.entOff, eng.mark, eng.idx, eng.overSeq = nil, nil, nil, nil
	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		av:       make(map[callgraph.Site]uint64, len(eng.taskBuf)),
	}
	for _, v := range eng.cav {
		p.maxCAV = max(p.maxCAV, v)
	}
	for _, s := range eng.taskBuf {
		p.av[eng.nb.Site(s)] = eng.av[s]
	}
	for i, id := range eng.topo {
		off, end := eng.rowOff[i], eng.rowOff[i+1]
		if off == end {
			if eng.resetsB[id] {
				p.icc[id] = map[callgraph.NodeID]uint64{id: 1}
			}
			continue
		}
		anchors := make([]callgraph.NodeID, end-off)
		cav := make(map[callgraph.NodeID]uint64, end-off)
		for k := off; k < end; k++ {
			r := callgraph.NodeID(eng.rowBuf[k])
			anchors[k-off] = r
			cav[r] = eng.cav[k]
		}
		p.nanchors[id] = anchors
		p.cav[id] = cav
		if eng.resetsB[id] {
			p.icc[id] = map[callgraph.NodeID]uint64{id: 1}
			continue
		}
		m := make(map[callgraph.NodeID]uint64, end-off)
		for k := off; k < end; k++ {
			if eng.batch && eng.dead[k] {
				continue // dead range: do not seed downstream counts
			}
			m[callgraph.NodeID(eng.rowBuf[k])] = eng.cav[k]
		}
		if eng.anB[id] {
			m[id] = 1
		}
		p.icc[id] = m
	}
	for ei := range eng.eOff {
		off, end := eng.eOff[ei], eng.eEnd[ei]
		if off == end {
			continue
		}
		anchors := make([]callgraph.NodeID, end-off)
		for k := off; k < end; k++ {
			anchors[k-off] = callgraph.NodeID(eng.ent[k].anchor)
		}
		p.eanchors[eng.nb.Edge(int32(ei))] = anchors
	}
	return p
}
