// Level-parallel analysis engine: the one Algorithm 2 sweep Encode runs,
// at every graph size.
//
// The reference map sweep (runOnce, kept in the tests as the oracle this
// engine is checked against) processes call sites in the graph's canonical
// Kahn order and every downstream consumer — golden files, .dpa fixtures,
// Extend's bit-exact replay — depends on the addition values that order
// produces. The engine therefore does NOT re-order the computation; it
// extracts the dependency structure of the *same* schedule and runs
// independent portions concurrently:
//
//   - task(n) = "process node n's first-encountered sites in serial order,
//     then n's ICC is final". One task per node.
//   - task(m) must precede task(n) when n reads m's ICC (m is the caller of
//     a site assigned to n), or when both touch the CAV row of some node t
//     (all touchers of t are serialized in their serial relative order; the
//     last toucher of t is task(t) itself, because every site targeting t
//     is assigned at a node no later than t in the Kahn order).
//   - Waves are the longest-path levels of that task DAG. Within a wave,
//     tasks touch pairwise-disjoint CAV rows and read only ICCs finalized
//     in earlier waves, so they commute: any interleaving produces exactly
//     the serial result, regardless of worker count. Equivalence is also
//     proven empirically corpus-wide by TestParallelSerialDifferential.
//
// The engine keeps its hot state in compact int32 CSR arrays (anchor rows,
// edge territories, CAV cells in one backing slice, and per territory entry
// the precomputed positions of the two cells it reads) instead of nested
// maps; ICC is never materialized during the sweep — reads reconstruct it
// from the frozen CAV row, which is exactly how the reference sweep builds
// the ICC map. On success the arrays are converted into the ordinary *pass
// shape, so Result, incState and Extend are byte-for-byte indistinguishable
// from the reference sweep's output.
package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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

	// Levels is the number of conflict waves the engine's schedule found
	// (the depth of the task-dependency DAG).
	Levels int `json:"levels"`

	// Par is the size of the worker pool the analysis ran with.
	Par int `json:"par"`

	// PeakBytes is the high-water live-heap mark observed at engine
	// checkpoints (after territory construction, after each pass, after
	// Result assembly). It includes the input graph itself — that is the
	// honest budget an operator must provision. BytesPerNode divides by
	// the node count.
	PeakBytes    uint64  `json:"peak_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

const (
	// maxAutoWorkers caps auto mode; the wave executor's per-task work is
	// small, so very wide pools only add barrier traffic.
	maxAutoWorkers = 8

	// waveChunk is the number of wave tasks a worker claims per cursor
	// bump.
	waveChunk = 128
)

// effectiveWorkers resolves Options.Workers to the wave pool size: an
// explicit count as given, auto mode (0 or negative) GOMAXPROCS capped at
// maxAutoWorkers.
func effectiveWorkers(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return min(runtime.GOMAXPROCS(0), maxAutoWorkers)
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

// parEngine holds everything that depends only on the graph, the recursive
// edge set and the (optional) edge profile — built once and reused across
// Algorithm 2's restarts. Anchor-dependent state lives in parRun.
type parEngine struct {
	g       *callgraph.Graph
	rec     map[callgraph.Edge]bool
	workers int

	numNodes int
	numEdges int

	// Out-edge CSR in AddEdge order: the dense edge index space every
	// other array is keyed by. The caller of edge ei is the row it lies
	// in; only callee/label/rec need explicit storage.
	outStart   []int32
	edgeCallee []int32
	edgeLabel  []int32
	edgeRec    []bool

	// Dense site table in callgraph.Sites() order.
	siteList  []callgraph.Site
	siteOff   []int32 // site -> span in siteEdges (targets, insertion order)
	siteEdges []int32

	// Schedule: the serial sweep's site-to-node assignment. taskBuf holds
	// dense site IDs in global serial processing order (so a site's index
	// in taskBuf is its canonical sequence number, used to merge overflow
	// events back into serial discovery order).
	taskStart []int32
	taskEnd   []int32
	taskBuf   []int32
	sitePos   []int32 // site -> sequence number, -1 if never processed

	// Waves: task-DAG levels, each wave in topo order.
	waves  [][]callgraph.NodeID
	levels int
}

// newParEngine flattens the graph and computes the wave schedule.
func newParEngine(g *callgraph.Graph, topo []callgraph.NodeID, rec map[callgraph.Edge]bool,
	profile map[callgraph.Edge]uint64, workers int) *parEngine {

	nn := g.NumNodes()
	ne := g.NumEdges()
	eng := &parEngine{
		g: g, rec: rec, workers: workers,
		numNodes:   nn,
		numEdges:   ne,
		outStart:   make([]int32, nn+1),
		edgeCallee: make([]int32, ne),
		edgeLabel:  make([]int32, ne),
		edgeRec:    make([]bool, ne),
	}

	// Out-edge CSR + transient edge-to-index map (released after build).
	edgeIdx := make(map[callgraph.Edge]int32, ne)
	pos := int32(0)
	for n := 0; n < nn; n++ {
		eng.outStart[n] = pos
		for _, e := range g.Out(callgraph.NodeID(n)) {
			eng.edgeCallee[pos] = int32(e.Callee)
			eng.edgeLabel[pos] = e.Label
			eng.edgeRec[pos] = rec[e]
			edgeIdx[e] = pos
			pos++
		}
	}
	eng.outStart[nn] = pos

	// Dense site table.
	sites := g.Sites()
	eng.siteList = sites
	sid := make(map[callgraph.Site]int32, len(sites))
	eng.siteOff = make([]int32, len(sites)+1)
	total := int32(0)
	for i, s := range sites {
		sid[s] = int32(i)
		eng.siteOff[i] = total
		total += int32(len(g.SiteTargets(s)))
	}
	eng.siteOff[len(sites)] = total
	eng.siteEdges = make([]int32, total)
	pos = 0
	for _, s := range sites {
		for _, e := range g.SiteTargets(s) {
			eng.siteEdges[pos] = edgeIdx[e]
			pos++
		}
	}

	// Schedule: replicate the serial sweep's site assignment exactly —
	// first-encountered target in Kahn order, in-edges in orderIn order.
	eng.taskStart = make([]int32, nn)
	eng.taskEnd = make([]int32, nn)
	eng.taskBuf = make([]int32, 0, len(sites))
	eng.sitePos = make([]int32, len(sites))
	for i := range eng.sitePos {
		eng.sitePos[i] = -1
	}
	for _, n := range topo {
		eng.taskStart[n] = int32(len(eng.taskBuf))
		for _, e := range orderIn(g.ForwardIn(n, rec), profile) {
			s := sid[e.Site()]
			if eng.sitePos[s] >= 0 {
				continue
			}
			eng.sitePos[s] = int32(len(eng.taskBuf))
			eng.taskBuf = append(eng.taskBuf, s)
		}
		eng.taskEnd[n] = int32(len(eng.taskBuf))
	}

	eng.buildWaves(topo)
	return eng
}

// buildWaves computes each task's DAG level in one pass over the serial
// order. The constraints are exactly the conflict structure described in
// the package comment:
//
//   - task(n) runs after the previous toucher of every CAV row its sites
//     read or write (including row n itself, which its ICC finalization
//     reads),
//   - and after task(caller) for every assigned site with a forward
//     target, whose ICC the increment computation reads.
//
// All constraint sources precede n in the serial order, so level[] is
// complete when read. The constraints are anchor-independent (they assume
// every edge's territory list is non-empty), which over-serializes some
// restarts slightly but lets the schedule be built once.
func (eng *parEngine) buildWaves(topo []callgraph.NodeID) {
	level := make([]int32, eng.numNodes)
	lastTouch := make([]int32, eng.numNodes)
	for i := range lastTouch {
		lastTouch[i] = -1
	}
	touched := make([]int32, 0, 64)
	maxLevel := int32(0)
	for _, n := range topo {
		lvl := int32(0)
		touched = touched[:0]
		if lt := lastTouch[n]; lt >= lvl {
			lvl = lt + 1
		}
		touched = append(touched, int32(n))
		for _, s := range eng.taskBuf[eng.taskStart[n]:eng.taskEnd[n]] {
			hasForward := false
			for _, ei := range eng.siteEdges[eng.siteOff[s]:eng.siteOff[s+1]] {
				if eng.edgeRec[ei] {
					continue
				}
				hasForward = true
				t := eng.edgeCallee[ei]
				if lt := lastTouch[t]; lt >= lvl {
					lvl = lt + 1
				}
				touched = append(touched, t)
			}
			if hasForward {
				if lc := level[eng.siteList[s].Caller]; lc >= lvl {
					lvl = lc + 1
				}
			}
		}
		level[n] = lvl
		for _, t := range touched {
			lastTouch[t] = lvl
		}
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}

	eng.levels = int(maxLevel) + 1
	counts := make([]int32, eng.levels)
	for _, n := range topo {
		counts[level[n]]++
	}
	eng.waves = make([][]callgraph.NodeID, eng.levels)
	for l := range eng.waves {
		eng.waves[l] = make([]callgraph.NodeID, 0, counts[l])
	}
	for _, n := range topo {
		eng.waves[level[n]] = append(eng.waves[level[n]], n)
	}
}

// overEvent is one overflow discovery, stamped with the canonical sequence
// number of the site that produced it so per-worker events merge back into
// serial discovery order.
type overEvent struct {
	seq    int32
	caller callgraph.NodeID
}

// edgeAnchor is one entry of an edge's territory row: for edge (c, t) and
// anchor r, the cavBuf positions of cells (t, r) and (c, r). The three
// fields share one slot because the row transpose writes them together.
type edgeAnchor struct {
	anchor, calleeCell, callerCell int32
}

// parRun is one anchor-set attempt: the state of one engine pass.
type parRun struct {
	eng     *parEngine
	anB     []bool
	resetsB []bool
	maxID   uint64
	batch   bool

	// Territory CSR: per node the sorted anchors reaching it, per edge the
	// sorted anchors whose territory contains it. cavBuf is the CAV cell
	// per (node, anchor) pair, aligned with nanchBuf; deadBuf (batch mode
	// only) marks killed cells the same way.
	nanchOff []int32
	nanchBuf []int32
	eanchOff []int32
	eanchBuf []edgeAnchor
	cavBuf   []uint64
	deadBuf  []bool

	av    []uint64
	avSet []bool

	// Per-worker accumulators, merged after the sweep.
	maxCAV  []uint64
	overMin []map[callgraph.NodeID]int32 // batch: caller -> min seq
	firstOv []overEvent                  // non-batch: min-seq event, seq<0 = none
}

// runOnce runs one pass over the anchor set an: (pass, nil, true) on
// success, (nil, callers, false) on overflow with callers in serial
// discovery order — the contract of the reference sweep.
func (eng *parEngine) runOnce(an, resets map[callgraph.NodeID]bool, maxID uint64,
	batch bool, mem *memPeak) (*pass, []callgraph.NodeID, bool) {

	run := &parRun{
		eng:     eng,
		anB:     make([]bool, eng.numNodes),
		resetsB: make([]bool, eng.numNodes),
		maxID:   maxID,
		batch:   batch,
		av:      make([]uint64, len(eng.siteList)),
		avSet:   make([]bool, len(eng.siteList)),
		maxCAV:  make([]uint64, eng.workers),
	}
	for n := range an {
		run.anB[n] = true
	}
	for n := range resets {
		run.resetsB[n] = true
	}

	anchors := make([]callgraph.NodeID, 0, len(an))
	for r := range an {
		anchors = append(anchors, r)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })

	run.buildTerritories(anchors)
	if batch {
		run.deadBuf = make([]bool, len(run.cavBuf))
	}
	mem.sample()

	run.overMin = make([]map[callgraph.NodeID]int32, eng.workers)
	run.firstOv = make([]overEvent, eng.workers)
	for w := range run.firstOv {
		run.firstOv[w] = overEvent{seq: -1}
		run.overMin[w] = map[callgraph.NodeID]int32{}
	}

	run.exec()
	mem.sample()

	if !batch {
		best := overEvent{seq: -1}
		for _, ev := range run.firstOv {
			if ev.seq >= 0 && (best.seq < 0 || ev.seq < best.seq) {
				best = ev
			}
		}
		if best.seq >= 0 {
			return nil, []callgraph.NodeID{best.caller}, false
		}
	} else {
		merged := map[callgraph.NodeID]int32{}
		for _, m := range run.overMin {
			for c, seq := range m {
				if prev, ok := merged[c]; !ok || seq < prev {
					merged[c] = seq
				}
			}
		}
		if len(merged) > 0 {
			callers := make([]callgraph.NodeID, 0, len(merged))
			for c := range merged {
				callers = append(callers, c)
			}
			sort.Slice(callers, func(i, j int) bool { return merged[callers[i]] < merged[callers[j]] })
			return nil, callers, false
		}
	}

	p := run.toPass()
	mem.sample()
	return p, nil, true
}

// buildTerritories runs every anchor's bounded DFS concurrently (work-stolen
// off a shared cursor, each worker with its own epoch-stamped visited array)
// and merges the per-anchor node lists into sorted CSR rows: anchors are
// merged in ascending order, so each row lists its anchors sorted — the
// same lists territoryDFS builds. An anchor's territory edges are the
// non-recursive out-edges of the members its DFS expanded (all but the
// boundary anchors), so they are derived from the node list, and the merge
// records each edge entry's caller and callee cells as it goes: both exist,
// because the DFS visited the caller to traverse the edge and reached the
// callee through it.
func (run *parRun) buildTerritories(anchors []callgraph.NodeID) {
	eng := run.eng
	terrNodes := make([][]int32, len(anchors))

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(eng.workers, len(anchors)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visited := make([]int32, eng.numNodes) // epoch = anchor index + 1
			var stack []int32
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(anchors) {
					return
				}
				r := int32(anchors[i])
				epoch := int32(i) + 1
				nodes := []int32{r}
				visited[r] = epoch
				stack = append(stack[:0], r)
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if !run.expands(v, r) {
						continue // boundary anchor: in the territory, not traversed
					}
					for ei := eng.outStart[v]; ei < eng.outStart[v+1]; ei++ {
						if t := eng.edgeCallee[ei]; !eng.edgeRec[ei] && visited[t] != epoch {
							visited[t] = epoch
							nodes = append(nodes, t)
							stack = append(stack, t)
						}
					}
				}
				terrNodes[i] = nodes
			}
		}()
	}
	wg.Wait()

	// Row lengths, counted at offset+1 and prefix-summed into offsets.
	run.nanchOff = make([]int32, eng.numNodes+1)
	run.eanchOff = make([]int32, eng.numEdges+1)
	for i, r := range anchors {
		for _, n := range terrNodes[i] {
			run.nanchOff[n+1]++
			if run.expands(n, int32(r)) {
				for ei := eng.outStart[n]; ei < eng.outStart[n+1]; ei++ {
					if !eng.edgeRec[ei] {
						run.eanchOff[ei+1]++
					}
				}
			}
		}
	}
	for n := 0; n < eng.numNodes; n++ {
		run.nanchOff[n+1] += run.nanchOff[n]
	}
	for ei := 0; ei < eng.numEdges; ei++ {
		run.eanchOff[ei+1] += run.eanchOff[ei]
	}

	nTotal, eTotal := run.nanchOff[eng.numNodes], run.eanchOff[eng.numEdges]
	run.nanchBuf = make([]int32, nTotal)
	run.eanchBuf = make([]edgeAnchor, eTotal)
	nFill := append([]int32(nil), run.nanchOff[:eng.numNodes]...)
	eFill := append([]int32(nil), run.eanchOff[:eng.numEdges]...)
	for i, r := range anchors {
		for _, n := range terrNodes[i] {
			run.nanchBuf[nFill[n]] = int32(r)
			nFill[n]++
		}
		// Every member n of r's territory now has its cell (n, r) at
		// nFill[n]-1.
		for _, c := range terrNodes[i] {
			if !run.expands(c, int32(r)) {
				continue
			}
			for ei := eng.outStart[c]; ei < eng.outStart[c+1]; ei++ {
				if eng.edgeRec[ei] {
					continue
				}
				run.eanchBuf[eFill[ei]] = edgeAnchor{
					anchor:     int32(r),
					calleeCell: nFill[eng.edgeCallee[ei]] - 1,
					callerCell: nFill[c] - 1,
				}
				eFill[ei]++
			}
		}
	}
	run.cavBuf = make([]uint64, nTotal) // CAV[n][r] starts at 0
}

// expands reports whether anchor r's bounded DFS traverses member v's
// out-edges: it retreats at every other resetting anchor.
func (run *parRun) expands(v, r int32) bool { return v == r || !run.resetsB[v] }

// iccRead reconstructs ICC[c][r] exactly as the reference sweep's icc map
// would hold it at the moment a later node reads it, for an entry of one of
// c's out-edges with anchor r and caller cell ci. A piece start reads its
// reserved 1 (r == c); otherwise c is interior to r's territory — r's DFS
// expanded c, so c does not reset — and the frozen CAV cell is read, a dead
// cell reading as absent (0).
func (run *parRun) iccRead(c, r, ci int32) uint64 {
	if r == c {
		return 1
	}
	if run.batch && run.deadBuf[ci] {
		return 0
	}
	return run.cavBuf[ci]
}

// exec runs the wave schedule: a barrier between waves, a work-stealing
// cursor within each. A failed pass always runs to completion: the
// reference sweep stops at its first overflow, but the first overflow in
// sequence order can sit anywhere in the wave schedule, so every event is
// collected and the minimum-sequence one reproduces the serial promotion.
// That is sound because each site's inputs flow only from strictly
// smaller-sequence sites (the conflict chains and ICC deps both point
// backward in sequence order), so every site below the minimal overflow
// computes clean serial values regardless of how later overflows were
// handled.
func (run *parRun) exec() {
	for _, wave := range run.eng.waves {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < run.eng.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(waveChunk)) - waveChunk
					if i >= len(wave) {
						return
					}
					end := i + waveChunk
					if end > len(wave) {
						end = len(wave)
					}
					for _, n := range wave[i:end] {
						run.task(int32(n), w)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// task processes node n's assigned sites in serial order. ICC finalization
// needs no work at run time: the CAV row freezes here by schedule
// construction, and iccRead reconstructs the map the reference sweep would
// build from it.
func (run *parRun) task(n int32, w int) {
	eng := run.eng
	for _, s := range eng.taskBuf[eng.taskStart[n]:eng.taskEnd[n]] {
		run.av[s] = run.calcIncrement(s, w)
		run.avSet[s] = true
	}
}

// calcIncrement is calculateIncrement over the CSR state: same maximum over
// the targets' live CAV cells, same ICC-plus-increment writes, same overflow
// bookkeeping (batch mode kills the range; either mode records the event
// with its sequence number and keeps sweeping). Recursive edges have empty
// territory rows, so they contribute nothing.
func (run *parRun) calcIncrement(s int32, w int) uint64 {
	eng := run.eng
	row := eng.siteEdges[eng.siteOff[s]:eng.siteOff[s+1]]

	var a uint64
	for _, ei := range row {
		for _, ea := range run.eanchBuf[run.eanchOff[ei]:run.eanchOff[ei+1]] {
			ci := ea.calleeCell
			if run.batch && run.deadBuf[ci] {
				continue
			}
			if v := run.cavBuf[ci]; v > a {
				a = v
			}
		}
	}

	caller := int32(eng.siteList[s].Caller)
	for _, ei := range row {
		for _, ea := range run.eanchBuf[run.eanchOff[ei]:run.eanchOff[ei+1]] {
			ci := ea.calleeCell
			iw := run.iccRead(caller, ea.anchor, ea.callerCell)
			if iw > run.maxID-a {
				seq := eng.sitePos[s]
				if !run.batch {
					if ev := &run.firstOv[w]; ev.seq < 0 || seq < ev.seq {
						*ev = overEvent{seq: seq, caller: callgraph.NodeID(caller)}
					}
					continue // failed pass: keep sweeping, skip the write
				}
				if prev, ok := run.overMin[w][callgraph.NodeID(caller)]; !ok || seq < prev {
					run.overMin[w][callgraph.NodeID(caller)] = seq
				}
				run.deadBuf[ci] = true
				continue
			}
			v := iw + a
			if !(run.batch && run.deadBuf[ci]) {
				run.cavBuf[ci] = v
			}
			if v > run.maxCAV[w] {
				run.maxCAV[w] = v
			}
		}
	}
	return a
}

// toPass converts the CSR state of a successful run into the pass shape,
// so Result assembly (finish) and Extend's incState are identical to the
// reference sweep's output.
func (run *parRun) toPass() *pass {
	eng := run.eng
	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		av:       make(map[callgraph.Site]uint64, len(eng.siteList)),
	}
	for w := 0; w < eng.workers; w++ {
		if run.maxCAV[w] > p.maxCAV {
			p.maxCAV = run.maxCAV[w]
		}
	}
	for s, set := range run.avSet {
		if set {
			p.av[eng.siteList[s]] = run.av[s]
		}
	}
	for n := 0; n < eng.numNodes; n++ {
		off, end := run.nanchOff[n], run.nanchOff[n+1]
		if off == end {
			if run.resetsB[n] {
				p.icc[callgraph.NodeID(n)] = map[callgraph.NodeID]uint64{callgraph.NodeID(n): 1}
			}
			continue
		}
		anchors := make([]callgraph.NodeID, end-off)
		cav := make(map[callgraph.NodeID]uint64, end-off)
		for k := off; k < end; k++ {
			r := callgraph.NodeID(run.nanchBuf[k])
			anchors[k-off] = r
			cav[r] = run.cavBuf[k]
		}
		id := callgraph.NodeID(n)
		p.nanchors[id] = anchors
		p.cav[id] = cav
		if run.resetsB[n] {
			p.icc[id] = map[callgraph.NodeID]uint64{id: 1}
			continue
		}
		m := make(map[callgraph.NodeID]uint64, end-off)
		for k := off; k < end; k++ {
			if run.batch && run.deadBuf[k] {
				continue // dead range: do not seed downstream counts
			}
			m[callgraph.NodeID(run.nanchBuf[k])] = run.cavBuf[k]
		}
		if run.anB[n] {
			m[id] = 1
		}
		p.icc[id] = m
	}
	for n := 0; n < eng.numNodes; n++ {
		for ei := eng.outStart[n]; ei < eng.outStart[n+1]; ei++ {
			off, end := run.eanchOff[ei], run.eanchOff[ei+1]
			if off == end {
				continue
			}
			anchors := make([]callgraph.NodeID, end-off)
			for k := off; k < end; k++ {
				anchors[k-off] = callgraph.NodeID(run.eanchBuf[k].anchor)
			}
			e := callgraph.Edge{
				Caller: callgraph.NodeID(n),
				Callee: callgraph.NodeID(eng.edgeCallee[ei]),
				Label:  eng.edgeLabel[ei],
			}
			p.eanchors[e] = anchors
		}
	}
	return p
}
