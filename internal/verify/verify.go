// Package verify statically certifies that an encoding analysis is sound:
// that every runtime encoding the spec can produce decodes to exactly one
// calling context. The dynamic test suites observe this property on the
// executions they happen to run; the verifier proves it for all executions,
// by re-deriving the interval structure of Algorithms 1 and 2 from the
// spec's addition values and checking every invariant the decoder relies
// on.
//
// The checks, each guarding a part of the paper:
//
//   - structure: the spec's maps reference only nodes, edges, and call sites
//     that exist in its graph (a corrupted or mismatched .dpa violates this
//     first).
//   - push-kind / recursion-anchored: piece-starting edges carry a
//     recursion/pruned kind, and every recursive edge's target is an anchor
//     (Section 2 via Algorithm 2: each cyclic step starts a piece with
//     reserved width 1).
//   - forward-acyclic: the graph minus push edges is acyclic — every
//     recursive cycle crosses a push edge, so bottom-up decoding terminates.
//   - coverage: every node lies in at least one piece start's territory
//     (Section 3.2; orphan roots under selective encoding must themselves be
//     anchors).
//   - intervals: per piece start, the incoming-addition intervals
//     [AV, AV+ICC) of every territory node are pairwise disjoint, with the
//     node's ICC the tight upper bound — the injectivity core of
//     Algorithm 1. Note that the intervals need not cover [0, ICC) exactly:
//     a virtual site's single addition value is the maximum over its
//     dispatch targets and anchors, which deliberately inflates ICC and
//     leaves unused gaps (the paper's ICC vs NC distinction); the verifier
//     reports the gap total as a statistic, not a finding.
//   - capacity: no piece's ICC exceeds the configured integer limit, so
//     runtime additions cannot overflow (Algorithm 2's guarantee).
//   - virtual-site-av: one addition value per call site even under dynamic
//     dispatch — per-edge values, when present (PCCE mode), must agree at
//     every virtual site.
//   - cpt-*: the call-path-tracking plan is closed under the hazard rules of
//     Section 4.1: one SID per node, every call site carries the expectation
//     its dispatch targets share.
//
// Findings are deterministic: same input, same findings, same order.
package verify

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

// Options configures a verification run.
type Options struct {
	// MaxID is the inclusive encoding-integer limit pieces must fit in.
	// Zero means 2^63-1, matching core.Encode's default.
	MaxID uint64
	// Workers sets how many goroutines prove territory obligations
	// concurrently (the per-territory interval checks are independent).
	// 0 or 1 means serial. Reports are byte-identical for every worker
	// count: obligations are merged back in start order.
	Workers int
}

// Diagnostic is one finding: a violated invariant, located as precisely as
// the check allows.
type Diagnostic struct {
	// Check names the violated invariant (e.g. "intervals", "coverage").
	Check string `json:"check"`
	// Node is the node the finding is anchored to, when node-scoped.
	Node string `json:"node,omitempty"`
	// Site is the call site ("Class.method@label"), when site-scoped.
	Site string `json:"site,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
}

func (d Diagnostic) String() string {
	s := "[" + d.Check + "]"
	if d.Node != "" {
		s += " node=" + d.Node
	}
	if d.Site != "" {
		s += " site=" + d.Site
	}
	return s + " " + d.Detail
}

// Stats summarizes what was verified. CoverageHoles counts encoding IDs
// reserved by ICC inflation that no path produces (see the package comment:
// gaps are expected under virtual dispatch, and are a measure of how much
// space the single-addition-value design trades for dispatch-free sites).
type Stats struct {
	Nodes            int    `json:"nodes"`
	Edges            int    `json:"edges"`
	Sites            int    `json:"sites"`
	VirtualSites     int    `json:"virtual_sites"`
	PieceStarts      int    `json:"piece_starts"`
	PushEdges        int    `json:"push_edges"`
	CPTSets          int    `json:"cpt_sets"`
	IntervalsChecked int    `json:"intervals_checked"`
	MaxCapacity      uint64 `json:"max_capacity"`
	CoverageHoles    uint64 `json:"coverage_holes"`
}

// Report is the outcome of one verification.
type Report struct {
	// Source identifies the verified artifact (file path or program name).
	Source string `json:"source"`
	Stats  Stats  `json:"stats"`
	// Findings is empty iff the analysis is certified sound.
	Findings []Diagnostic `json:"findings"`
	// Delta is set by CheckDelta only: how much proof work was reused.
	Delta *DeltaInfo `json:"delta,omitempty"`
	// Certificate is the reusable proof state, set iff the report is clean
	// (see certificate.go). Excluded from the rendered surfaces.
	Certificate *Certificate `json:"-"`
}

// Clean reports whether no invariant was violated.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

func (r *Report) add(check, node, site, format string, args ...any) {
	r.Findings = append(r.Findings, diag(check, node, site, format, args...))
}

func diag(check, node, site, format string, args ...any) Diagnostic {
	return Diagnostic{Check: check, Node: node, Site: site, Detail: fmt.Sprintf(format, args...)}
}

// CheckFile loads a .dpa analysis file and verifies it. An unloadable file
// yields a report with a single "load" finding rather than an error: a
// corrupt artifact is a verification outcome, not a tool failure.
func CheckFile(path string, opts Options) *Report {
	data, err := os.ReadFile(path)
	if err != nil {
		return &Report{Source: path, Findings: []Diagnostic{{Check: "load", Detail: err.Error()}}}
	}
	rep := CheckBytes(data, opts)
	rep.Source = path
	return rep
}

// CheckBytes verifies a .dpa analysis held in memory. It never panics and
// always terminates, whatever the bytes — the contract the fuzz target
// pins.
func CheckBytes(data []byte, opts Options) *Report {
	bundle, err := analysisio.Load(bytes.NewReader(data))
	if err != nil {
		return &Report{Findings: []Diagnostic{{Check: "load", Detail: err.Error()}}}
	}
	return CheckBundle(bundle, opts)
}

// CheckBundle verifies a restored analysis bundle.
func CheckBundle(b *analysisio.Bundle, opts Options) *Report {
	return Check(b.Spec, b.CPT, opts)
}

// Check verifies an encoding spec (and its CPT plan, which may be nil) in
// memory.
func Check(spec *encoding.Spec, plan *cpt.Plan, opts Options) *Report {
	if spec == nil || spec.Graph == nil {
		rep := &Report{Findings: []Diagnostic{}}
		rep.add("structure", "", "", "no spec/graph to verify")
		return rep
	}
	rep := newReport(spec)
	if err := spec.Graph.Validate(); err != nil {
		rep.add("structure", "", "", "%v", err)
		return rep
	}
	maxID := opts.maxID()
	v := newView(spec)
	// Proving every territory from scratch cannot fail.
	_ = v.verify(rep, plan, maxID, func(_ []uint64, starts []callgraph.NodeID) ([]territoryObligation, error) {
		return v.proveTerritories(starts, maxID, opts.Workers), nil
	})
	return rep
}

// newReport starts a report on spec's graph. Findings starts non-nil so a
// clean report marshals as [], never null.
func newReport(spec *encoding.Spec) *Report {
	g := spec.Graph
	return &Report{
		Findings: []Diagnostic{},
		Stats: Stats{
			Nodes:        g.NumNodes(),
			Edges:        g.NumEdges(),
			Sites:        g.NumSites(),
			VirtualSites: g.NumVirtualSites(),
			PushEdges:    len(spec.Push),
		},
	}
}

func (o Options) maxID() uint64 {
	if o.MaxID == 0 {
		return math.MaxInt64
	}
	return o.MaxID
}

// verify runs every check in report order over the view, with the territory
// obligations supplied by obligations — fresh proofs for Check, reuse or
// re-proof for CheckDelta — and certifies a clean report.
func (v *view) verify(rep *Report, plan *cpt.Plan, maxID uint64,
	obligations func(nodeFP []uint64, starts []callgraph.NodeID) ([]territoryObligation, error)) error {

	checkStructure(rep, v)
	pushOK := checkPushEdges(rep, v)
	checkVirtualAV(rep, v)

	starts := v.pieceStarts()
	rep.Stats.PieceStarts = len(starts)

	// Interval verification needs a topological order of the forward
	// (non-push) graph; its existence is itself the recursion invariant.
	var nodeFP []uint64
	var obs []territoryObligation
	if !v.topoOrder() {
		reportForwardCycle(rep, v)
	} else if pushOK {
		nodeFP = v.nodeFingerprints()
		var err error
		if obs, err = obligations(nodeFP, starts); err != nil {
			return err
		}
		checkCoverage(rep, v, obs)
		mergeObligations(rep, obs)
	}

	checkCPT(rep, v, plan)
	if plan != nil {
		rep.Stats.CPTSets = plan.NumSets
	}
	if rep.Clean() && nodeFP != nil {
		rep.Certificate = buildCertificate(v.spec, maxID, nodeFP, starts, obs)
	}
	return nil
}

// checkStructure verifies that every spec map key references an entity of
// the graph. analysisio.Load guarantees this for well-formed files; an
// in-memory spec (or a tampered artifact) may not. The view collected the
// stray keys while reading the maps.
func checkStructure(rep *Report, v *view) {
	g := v.g
	slices.SortFunc(v.straySiteAV, compareSites)
	for _, s := range v.straySiteAV {
		rep.add("structure", "", siteName(g, s),
			"addition value %d assigned to a call site that does not exist", v.spec.SiteAV[s])
	}
	slices.SortFunc(v.strayEdgeAV, compareEdges)
	for _, e := range v.strayEdgeAV {
		rep.add("structure", "", siteName(g, e.Site()),
			"per-edge addition value assigned to nonexistent edge to %s", nameOf(g, e.Callee))
	}
	slices.Sort(v.strayAnchors)
	for _, n := range v.strayAnchors {
		rep.add("structure", fmt.Sprintf("node#%d", n), "", "anchor is not a node of the graph")
	}
}

// checkPushEdges verifies the piece-starting edges: they must exist, carry
// a call-edge piece kind, and — for recursive edges — target an anchor, so
// that every cyclic step starts a piece with its own reserved width
// (Algorithm 2's handling of PCCE recursion). It reports whether the push
// set is trustworthy enough for the interval checks to proceed.
func checkPushEdges(rep *Report, v *view) bool {
	spec, g := v.spec, v.g
	type finding struct {
		e callgraph.Edge
		d Diagnostic
	}
	var bad []finding
	ok := true
	for e, kind := range spec.Push {
		var d Diagnostic
		switch {
		case v.edgeIndex(e) < 0:
			d = diag("structure", "", siteName(g, e.Site()),
				"push edge to %s does not exist in the graph", nameOf(g, e.Callee))
			ok = false
		case kind == encoding.PieceRecursion:
			if v.isAnchor(int32(e.Callee)) {
				continue
			}
			d = diag("recursion-anchored", nameOf(g, e.Callee), siteName(g, e.Site()),
				"recursive edge target is not an anchor: the cycle through this edge has no piece boundary")
		case kind == encoding.PiecePruned:
			// Pruned edges may target any node; decoding from an arbitrary
			// start is sound whenever the anchor-rooted intervals are.
			continue
		default:
			d = diag("push-kind", "", siteName(g, e.Site()),
				"push edge to %s has kind %v; only recursion/pruned edges start pieces",
				nameOf(g, e.Callee), kind)
			ok = false
		}
		bad = append(bad, finding{e, d})
	}
	slices.SortFunc(bad, func(a, b finding) int { return compareEdges(a.e, b.e) })
	for _, f := range bad {
		rep.Findings = append(rep.Findings, f.d)
	}
	return ok
}

// reportForwardCycle names one cycle of the forward graph: a strongly
// connected component not broken by any push edge.
func reportForwardCycle(rep *Report, v *view) {
	comp, count := v.forwardSCC()
	members := make([][]int32, count)
	for u, c := range comp {
		members[c] = append(members[c], int32(u))
	}
	for _, ms := range members {
		if len(ms) < 2 && !v.forwardSelfLoop(ms[0]) {
			continue
		}
		names := make([]string, 0, 5)
		for i, m := range ms {
			if i == 5 {
				names = append(names, "...")
				break
			}
			names = append(names, nameOf(v.g, callgraph.NodeID(m)))
		}
		rep.add("forward-acyclic", names[0], "",
			"cycle not broken by any recursion push edge: {%s} — decoding cannot terminate",
			strings.Join(names, ", "))
		return // one witness cycle is enough; the finding is structural
	}
	rep.add("forward-acyclic", "", "", "forward graph is cyclic")
}

func (v *view) forwardSelfLoop(u int32) bool {
	for e := v.outStart[u]; e < v.outStart[u+1]; e++ {
		if v.callee[e] == u && v.push[e] == 0 {
			return true
		}
	}
	return false
}

// forwardSCC numbers the strongly connected components of the forward
// (non-push) graph by iterative Kosaraju and returns the numbering and the
// component count.
func (v *view) forwardSCC() ([]int32, int) {
	order := make([]int32, 0, v.n)
	seen := make([]bool, v.n)
	type frame struct{ u, e int32 }
	for s := 0; s < v.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack := []frame{{int32(s), v.outStart[s]}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.e == v.outStart[f.u+1] {
				order = append(order, f.u)
				stack = stack[:len(stack)-1]
				continue
			}
			e := f.e
			f.e++
			if c := v.callee[e]; v.push[e] == 0 && !seen[c] {
				seen[c] = true
				stack = append(stack, frame{c, v.outStart[c]})
			}
		}
	}
	// Transpose pass in reverse finishing order.
	comp := make([]int32, v.n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	var work []int32
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != -1 {
			continue
		}
		comp[root] = int32(count)
		work = append(work[:0], root)
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			for _, c := range v.inCaller[v.inStart[u]:v.inStart[u+1]] {
				if comp[c] == -1 {
					comp[c] = int32(count)
					work = append(work, c)
				}
			}
		}
		count++
	}
	return comp, count
}

// checkCoverage verifies that every node lies in at least one piece start's
// territory: a node outside every territory has no anchor-relative encoding
// space, so no piece ending there could ever decode (core.addOrphanAnchors
// exists precisely to prevent this). Membership comes from the already-walked
// territory obligations, so the DFS runs once per territory, not twice.
func checkCoverage(rep *Report, v *view, obs []territoryObligation) {
	covered := make([]bool, v.n)
	for _, ob := range obs {
		for _, n := range ob.members {
			covered[n] = true
		}
	}
	for n, ok := range covered {
		if !ok {
			rep.add("coverage", nameOf(v.g, callgraph.NodeID(n)), "",
				"node is outside every piece start's territory: contexts ending here are undecodable")
		}
	}
}

// interval is one in-edge's claim on a node's encoding space: [av, av+width).
type interval struct {
	k     int32 // the edge's position in the view's in-rows
	av    uint64
	width uint64
}

// territoryObligation is the unit of proof work the verifier partitions by:
// one piece start's territory walk plus its interval check, with the
// findings and statistics it contributes to the report. Obligations over
// different starts are independent — the basis of both the Workers parallel
// mode and CheckDelta's reuse.
type territoryObligation struct {
	start    callgraph.NodeID
	members  []callgraph.NodeID // territory nodes, increasing order
	findings []Diagnostic       // capacity/interval findings, emission order

	intervals int    // in-edge intervals derived (Stats.IntervalsChecked)
	holes     uint64 // unused encoding IDs (Stats.CoverageHoles)
	maxCap    uint64 // largest ICC, ≥1 (Stats.MaxCapacity is the max over all)
}

// prover is one worker's scratch for territory proofs. Membership and ICC
// are arrays over all nodes, stamped per territory rather than cleared, so
// a proof touches only its own members.
type prover struct {
	v     *view
	maxID uint64
	// member[u] and expanded[u] equal the current territory's stamp iff u
	// is a member, and a member whose out-edges the walk followed.
	member   []int32
	expanded []int32
	icc      []uint64 // ICC of the members proven so far
	work     []int32
	ranks    []int32
	in       []interval
}

func (v *view) newProver(maxID uint64) *prover {
	return &prover{v: v, maxID: maxID,
		member: make([]int32, v.n), expanded: make([]int32, v.n), icc: make([]uint64, v.n)}
}

// prove is the injectivity core for one piece start: recompute every
// territory node's inflated calling-context count (ICC) bottom-up from the
// spec's addition values, and require the incoming intervals to be pairwise
// disjoint with ICC their tight bound. Disjoint intervals make the decoder's
// greedy rule — largest addition value not exceeding the remaining ID —
// invert every path sum uniquely (Section 3.1); recomputing ICC rather than
// trusting a stored one means a tampered addition value cannot hide.
//
// stamp must differ from every stamp this prover used before.
func (p *prover) prove(start callgraph.NodeID, stamp int32) territoryObligation {
	v, g := p.v, p.v.g
	s := int32(start)

	// The territory is the bounded DFS of Section 3.2: traversal retreats
	// at other anchors (which still belong to the territory as its
	// boundary) and never crosses push edges — the same walk the decoder
	// and core.identifyTerritories use.
	p.member[s] = stamp
	p.ranks = append(p.ranks[:0], v.rank[s])
	p.work = append(p.work[:0], s)
	for len(p.work) > 0 {
		u := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if u != s && v.isAnchor(u) {
			continue
		}
		p.expanded[u] = stamp
		for e := v.outStart[u]; e < v.outStart[u+1]; e++ {
			if c := v.callee[e]; v.push[e] == 0 && p.member[c] != stamp {
				p.member[c] = stamp
				p.ranks = append(p.ranks, v.rank[c])
				p.work = append(p.work, c)
			}
		}
	}
	slices.Sort(p.ranks)
	ob := territoryObligation{start: start, maxCap: 1, members: make([]callgraph.NodeID, len(p.ranks))}
	for i, r := range p.ranks {
		ob.members[i] = callgraph.NodeID(v.topo[r])
	}
	slices.Sort(ob.members)

	// Members in forward topological order, so every caller's ICC is final
	// before its callees read it. Only in-edges whose caller the walk
	// expanded — the start or a non-anchor member — carry a range here.
	sub := &Report{}
	p.icc[s] = 1
	for _, r := range p.ranks {
		n := v.topo[r]
		if n == s {
			continue
		}
		in := p.in[:0]
		for k := v.inStart[n]; k < v.inStart[n+1]; k++ {
			if c := v.inCaller[k]; p.expanded[c] == stamp {
				in = append(in, interval{k: k, av: v.inAV[k], width: p.icc[c]})
			}
		}
		p.in = in
		ob.intervals += len(in)
		nodeOK := true
		var iccN uint64
		for i, iv := range in {
			if iv.av > p.maxID-iv.width {
				sub.add("capacity", nameOf(g, callgraph.NodeID(n)), siteName(g, v.site(v.inEdges[iv.k])),
					"piece capacity overflows the integer limit: addition value %d + width %d > %d (territory of %s)",
					iv.av, iv.width, p.maxID, nameOf(g, start))
				nodeOK = false
				iccN = p.maxID // clamp so downstream arithmetic stays defined
				continue
			}
			if end := iv.av + iv.width; end > iccN {
				iccN = end
			}
			if i+1 < len(in) {
				next := in[i+1]
				if gap := next.av - iv.av; gap < iv.width {
					sub.add("intervals", nameOf(g, callgraph.NodeID(n)), siteName(g, v.site(v.inEdges[iv.k])),
						"in-edge ranges overlap in territory of %s: [%d,%d) from %s collides with [%d,...) from %s — two paths share an encoding",
						nameOf(g, start), iv.av, iv.av+iv.width, nameOf(g, callgraph.NodeID(v.inCaller[iv.k])),
						next.av, nameOf(g, callgraph.NodeID(v.inCaller[next.k])))
					nodeOK = false
				}
			}
		}
		p.icc[n] = iccN
		if iccN > ob.maxCap {
			ob.maxCap = iccN
		}
		if nodeOK {
			// Unused IDs below the bound: the price of one addition
			// value per virtual site (ICC inflation), reported as a
			// statistic. Disjointness makes the subtraction safe.
			used := uint64(0)
			for _, iv := range in {
				used += iv.width
			}
			ob.holes += iccN - used
		}
	}
	ob.findings = sub.Findings
	return ob
}

// proveTerritories runs every obligation, optionally across a worker pool.
// The result slice is indexed like starts, so the merge order — and with it
// every rendered byte of the report — is identical for any worker count.
func (v *view) proveTerritories(starts []callgraph.NodeID, maxID uint64, workers int) []territoryObligation {
	obs := make([]territoryObligation, len(starts))
	if workers > len(starts) {
		workers = len(starts)
	}
	if workers <= 1 {
		p := v.newProver(maxID)
		for i, s := range starts {
			obs[i] = p.prove(s, int32(i+1))
		}
		return obs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			p := v.newProver(maxID)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(starts) {
					return
				}
				obs[i] = p.prove(starts[i], int32(i+1))
			}
		}()
	}
	wg.Wait()
	return obs
}

// mergeObligations folds the proven obligations into the report in start
// order: interval/capacity findings after the coverage findings (the order
// the serial verifier has always emitted), and the additive statistics.
func mergeObligations(rep *Report, obs []territoryObligation) {
	for _, ob := range obs {
		rep.Findings = append(rep.Findings, ob.findings...)
		rep.Stats.IntervalsChecked += ob.intervals
		rep.Stats.CoverageHoles += ob.holes
		if ob.maxCap > rep.Stats.MaxCapacity {
			rep.Stats.MaxCapacity = ob.maxCap
		}
	}
}

// checkVirtualAV verifies the single-addition-value property at virtual
// sites. With SiteAV it holds by construction; a per-edge spec (PCCE mode)
// must assign every dispatch target of a site the same value, or the
// runtime's single addition at the site is wrong for some target — exactly
// the dispatch conflict DeltaPath's CAV/ICC machinery eliminates.
func checkVirtualAV(rep *Report, v *view) {
	g := v.g
	if !v.spec.PerEdge {
		if len(v.spec.EdgeAV) > 0 {
			rep.add("virtual-site-av", "", "",
				"spec carries %d per-edge addition values but is not per-edge: values would be silently ignored",
				len(v.spec.EdgeAV))
		}
		return
	}
	for k := 0; k < v.numSites(); k++ {
		targets := v.targets(k)
		want := v.av[targets[0]]
		for _, e := range targets[1:] {
			if got := v.av[e]; got != want {
				rep.add("virtual-site-av", "", siteName(g, v.site(e)),
					"dispatch targets disagree on the addition value: %s gets %d, %s gets %d",
					nameOf(g, callgraph.NodeID(v.callee[targets[0]])), want, nameOf(g, callgraph.NodeID(v.callee[e])), got)
			}
		}
	}
}

// checkCPT verifies the call-path-tracking plan is closed under the hazard
// rules: one dense SID per node, and every call site carries the one SID
// all of its dispatch targets share — the comparison the runtime makes at
// every function entry (Section 4.1).
func checkCPT(rep *Report, v *view, plan *cpt.Plan) {
	if plan == nil {
		return
	}
	g := v.g
	if len(plan.SID) != v.n {
		rep.add("cpt-sids", "", "", "SID table has %d entries for %d nodes", len(plan.SID), v.n)
		return
	}
	for n, sid := range plan.SID {
		if sid < 0 || int(sid) >= plan.NumSets {
			rep.add("cpt-sids", nameOf(g, callgraph.NodeID(n)), "", "SID %d outside [0,%d)", sid, plan.NumSets)
		}
	}
	// Each site's expectation, located by one walk of the map; an
	// expectation for a site the graph lacks is reported first.
	want := make([]int32, v.numSites())
	has := make([]bool, v.numSites())
	var dangling []callgraph.Site
	for s, sid := range plan.Expected {
		if k := v.siteIndex(s); k >= 0 {
			want[k], has[k] = sid, true
		} else {
			dangling = append(dangling, s)
		}
	}
	slices.SortFunc(dangling, compareSites)
	for _, s := range dangling {
		rep.add("cpt-closure", "", siteName(g, s), "expectation recorded for a call site that does not exist")
	}
	for k := 0; k < v.numSites(); k++ {
		targets := v.targets(k)
		s := v.site(targets[0])
		if !has[k] {
			rep.add("cpt-closure", "", siteName(g, s),
				"call site has no saved SID expectation: hazardous unexpected call paths through it are undetectable")
			continue
		}
		for _, e := range targets {
			if sid := plan.SID[v.callee[e]]; sid != want[k] {
				rep.add("cpt-closure", nameOf(g, callgraph.NodeID(v.callee[e])), siteName(g, s),
					"dispatch target carries SID %d but the site expects %d: the sets are not merged",
					sid, want[k])
			}
		}
	}
}

// --- helpers ---

// nameOf is a bounds-checked g.Name: spec maps in a tampered in-memory
// spec may reference node IDs the graph does not have, and diagnostics
// must never panic.
func nameOf(g *callgraph.Graph, id callgraph.NodeID) string {
	if id < 0 || int(id) >= g.NumNodes() {
		return fmt.Sprintf("node#%d", id)
	}
	return g.Name(id)
}

func siteName(g *callgraph.Graph, s callgraph.Site) string {
	return fmt.Sprintf("%s@%d", nameOf(g, s.Caller), s.Label)
}

func compareSites(a, b callgraph.Site) int {
	if c := cmp.Compare(a.Caller, b.Caller); c != 0 {
		return c
	}
	return cmp.Compare(a.Label, b.Label)
}

func compareEdges(a, b callgraph.Edge) int {
	if c := compareSites(a.Site(), b.Site()); c != 0 {
		return c
	}
	return cmp.Compare(a.Callee, b.Callee)
}
