package verify

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deltapath/internal/callgraph"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

// The reference verifier: Check and CheckDelta as written over the Spec's
// maps, with every proof re-derived per piece start by a map-based territory
// walk. The dense-view verifier must reproduce its reports, certificates and
// delta verdicts exactly.

// checkOracle is Check over the Spec's maps.
func checkOracle(spec *encoding.Spec, plan *cpt.Plan, opts Options) *Report {
	rep := &Report{Findings: []Diagnostic{}}
	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	if spec == nil || spec.Graph == nil {
		rep.add("structure", "", "", "no spec/graph to verify")
		return rep
	}
	g := spec.Graph
	rep.Stats = Stats{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Sites:        g.NumSites(),
		VirtualSites: g.NumVirtualSites(),
		PushEdges:    len(spec.Push),
	}
	if err := g.Validate(); err != nil {
		rep.add("structure", "", "", "%v", err)
		return rep
	}
	// Proving every territory from scratch cannot fail.
	_ = oracleGlobal(rep, spec, plan, maxID,
		func(_ []uint64, starts, topo []callgraph.NodeID) ([]territoryObligation, error) {
			return oracleProveAll(spec, starts, topo, maxID), nil
		})
	return rep
}

// checkDeltaOracle is CheckDelta over the Spec's maps.
func checkDeltaOracle(prev *Certificate, spec *encoding.Spec, plan *cpt.Plan,
	dirty []callgraph.NodeID, opts Options) (*Report, error) {

	maxID := opts.MaxID
	if maxID == 0 {
		maxID = math.MaxInt64
	}
	if prev == nil {
		return nil, stalef("no certificate")
	}
	if spec == nil || spec.Graph == nil {
		return nil, stalef("no spec/graph to verify")
	}
	g := spec.Graph
	if prev.MaxID != maxID {
		return nil, stalef("certified under MaxID %d, verifying under %d", prev.MaxID, maxID)
	}
	if prev.PerEdge != spec.PerEdge {
		return nil, stalef("addition-value mode changed (per-edge %v -> %v)", prev.PerEdge, spec.PerEdge)
	}
	entry, ok := g.Entry()
	if !ok || entry != prev.Entry {
		return nil, stalef("entry node changed")
	}
	if g.NumNodes() < prev.NumNodes || g.NumEdges() < prev.NumEdges {
		return nil, stalef("graph shrank (%d/%d nodes, %d/%d edges): extensions are append-only",
			g.NumNodes(), prev.NumNodes, g.NumEdges(), prev.NumEdges)
	}
	if len(prev.NodeFP) != prev.NumNodes {
		return nil, stalef("certificate carries %d node fingerprints for %d nodes", len(prev.NodeFP), prev.NumNodes)
	}
	if err := g.Validate(); err != nil {
		return nil, stalef("graph does not validate: %v", err)
	}
	rep := &Report{Findings: []Diagnostic{}}
	rep.Stats = Stats{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Sites:        g.NumSites(),
		VirtualSites: g.NumVirtualSites(),
		PushEdges:    len(spec.Push),
	}
	delta := &DeltaInfo{}
	err := oracleGlobal(rep, spec, plan, maxID,
		func(nodeFP []uint64, starts, topo []callgraph.NodeID) ([]territoryObligation, error) {
			return deltaObligations(prev, nodeFP, starts, dirty, delta,
				func(s []callgraph.NodeID) []territoryObligation { return oracleProveAll(spec, s, topo, maxID) })
		})
	if err != nil {
		return nil, err
	}
	rep.Delta = delta
	return rep, nil
}

// oracleGlobal runs every check in report order, with the territory
// obligations supplied by obligations, and certifies a clean report.
func oracleGlobal(rep *Report, spec *encoding.Spec, plan *cpt.Plan, maxID uint64,
	obligations func(nodeFP []uint64, starts, topo []callgraph.NodeID) ([]territoryObligation, error),
) error {

	g := spec.Graph
	oracleStructure(rep, spec)
	pushOK := oraclePushEdges(rep, spec)
	oracleVirtualAV(rep, spec)

	starts := oraclePieceStarts(spec)
	rep.Stats.PieceStarts = len(starts)

	var nodeFP []uint64
	var obs []territoryObligation
	topo, err := g.TopoOrder(oraclePushEdgeSet(spec))
	if err != nil {
		oracleForwardCycle(rep, spec)
	} else if pushOK {
		nodeFP = oracleNodeFingerprints(spec)
		if obs, err = obligations(nodeFP, starts, topo); err != nil {
			return err
		}
		covered := make([]bool, g.NumNodes())
		for _, ob := range obs {
			for _, n := range ob.members {
				covered[n] = true
			}
		}
		for _, n := range g.Nodes() {
			if !covered[n] {
				rep.add("coverage", nameOf(g, n), "",
					"node is outside every piece start's territory: contexts ending here are undecodable")
			}
		}
		mergeObligations(rep, obs)
	}

	oracleCPT(rep, spec, plan)
	if plan != nil {
		rep.Stats.CPTSets = plan.NumSets
	}
	if rep.Clean() && nodeFP != nil {
		rep.Certificate = buildCertificate(spec, maxID, nodeFP, starts, obs)
	}
	return nil
}

func oracleStructure(rep *Report, spec *encoding.Spec) {
	g := spec.Graph
	for _, s := range sortedSites(spec.SiteAV) {
		if len(g.SiteTargets(s)) == 0 {
			rep.add("structure", "", siteName(g, s),
				"addition value %d assigned to a call site that does not exist", spec.SiteAV[s])
		}
	}
	for _, e := range sortedEdges(spec.EdgeAV) {
		if !g.HasEdge(e) {
			rep.add("structure", "", siteName(g, e.Site()),
				"per-edge addition value assigned to nonexistent edge to %s", nameOf(g, e.Callee))
		}
	}
	for _, n := range sortedNodes(spec.Anchors) {
		if n < 0 || int(n) >= g.NumNodes() {
			rep.add("structure", fmt.Sprintf("node#%d", n), "", "anchor is not a node of the graph")
		}
	}
}

func oraclePushEdges(rep *Report, spec *encoding.Spec) bool {
	g := spec.Graph
	ok := true
	for _, e := range sortedEdges(spec.Push) {
		kind := spec.Push[e]
		if !g.HasEdge(e) {
			rep.add("structure", "", siteName(g, e.Site()),
				"push edge to %s does not exist in the graph", nameOf(g, e.Callee))
			ok = false
			continue
		}
		switch kind {
		case encoding.PieceRecursion:
			if !spec.Anchors[e.Callee] {
				rep.add("recursion-anchored", nameOf(g, e.Callee), siteName(g, e.Site()),
					"recursive edge target is not an anchor: the cycle through this edge has no piece boundary")
			}
		case encoding.PiecePruned:
		default:
			rep.add("push-kind", "", siteName(g, e.Site()),
				"push edge to %s has kind %v; only recursion/pruned edges start pieces",
				nameOf(g, e.Callee), kind)
			ok = false
		}
	}
	return ok
}

func oracleForwardCycle(rep *Report, spec *encoding.Spec) {
	g := spec.Graph
	push := oraclePushEdgeSet(spec)
	comp := oracleForwardSCC(g, push)
	bySize := map[int][]callgraph.NodeID{}
	for n, c := range comp {
		bySize[c] = append(bySize[c], callgraph.NodeID(n))
	}
	keys := make([]int, 0, len(bySize))
	for c := range bySize {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	for _, c := range keys {
		members := bySize[c]
		if len(members) < 2 && !oracleForwardSelfLoop(g, push, members[0]) {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		names := make([]string, 0, 5)
		for i, m := range members {
			if i == 5 {
				names = append(names, "...")
				break
			}
			names = append(names, nameOf(g, m))
		}
		rep.add("forward-acyclic", names[0], "",
			"cycle not broken by any recursion push edge: {%s} — decoding cannot terminate",
			strings.Join(names, ", "))
		return
	}
	rep.add("forward-acyclic", "", "", "forward graph is cyclic")
}

func oracleForwardSelfLoop(g *callgraph.Graph, push map[callgraph.Edge]bool, n callgraph.NodeID) bool {
	for _, e := range g.Out(n) {
		if e.Callee == n && !push[e] {
			return true
		}
	}
	return false
}

func oracleForwardSCC(g *callgraph.Graph, push map[callgraph.Edge]bool) []int {
	n := g.NumNodes()
	order := make([]callgraph.NodeID, 0, n)
	seen := make([]bool, n)
	type frame struct {
		v  callgraph.NodeID
		ei int
	}
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack := []frame{{v: callgraph.NodeID(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			out := g.Out(f.v)
			for f.ei < len(out) {
				e := out[f.ei]
				f.ei++
				if push[e] || seen[e.Callee] {
					continue
				}
				seen[e.Callee] = true
				stack = append(stack, frame{v: e.Callee})
				advanced = true
				break
			}
			if !advanced {
				order = append(order, f.v)
				stack = stack[:len(stack)-1]
			}
		}
	}
	rin := make([][]callgraph.NodeID, n)
	for _, id := range g.Nodes() {
		for _, e := range g.Out(id) {
			if !push[e] {
				rin[e.Callee] = append(rin[e.Callee], e.Caller)
			}
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != -1 {
			continue
		}
		work := []callgraph.NodeID{root}
		comp[root] = c
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range rin[v] {
				if comp[u] == -1 {
					comp[u] = c
					work = append(work, u)
				}
			}
		}
		c++
	}
	return comp
}

func oracleVirtualAV(rep *Report, spec *encoding.Spec) {
	g := spec.Graph
	if !spec.PerEdge {
		if len(spec.EdgeAV) > 0 {
			rep.add("virtual-site-av", "", "",
				"spec carries %d per-edge addition values but is not per-edge: values would be silently ignored",
				len(spec.EdgeAV))
		}
		return
	}
	for _, s := range g.Sites() {
		targets := g.SiteTargets(s)
		if len(targets) < 2 {
			continue
		}
		want := spec.EdgeAV[targets[0]]
		for _, e := range targets[1:] {
			if got := spec.EdgeAV[e]; got != want {
				rep.add("virtual-site-av", "", siteName(g, s),
					"dispatch targets disagree on the addition value: %s gets %d, %s gets %d",
					nameOf(g, targets[0].Callee), want, nameOf(g, e.Callee), got)
			}
		}
	}
}

func oracleCPT(rep *Report, spec *encoding.Spec, plan *cpt.Plan) {
	if plan == nil {
		return
	}
	g := spec.Graph
	if len(plan.SID) != g.NumNodes() {
		rep.add("cpt-sids", "", "", "SID table has %d entries for %d nodes", len(plan.SID), g.NumNodes())
		return
	}
	for _, n := range g.Nodes() {
		if sid := plan.SID[n]; sid < 0 || int(sid) >= plan.NumSets {
			rep.add("cpt-sids", nameOf(g, n), "", "SID %d outside [0,%d)", sid, plan.NumSets)
		}
	}
	for _, s := range sortedSites(plan.Expected) {
		if len(g.SiteTargets(s)) == 0 {
			rep.add("cpt-closure", "", siteName(g, s), "expectation recorded for a call site that does not exist")
		}
	}
	for _, s := range g.Sites() {
		targets := g.SiteTargets(s)
		if len(targets) == 0 {
			continue
		}
		want, ok := plan.Expected[s]
		if !ok {
			rep.add("cpt-closure", "", siteName(g, s),
				"call site has no saved SID expectation: hazardous unexpected call paths through it are undetectable")
			continue
		}
		for _, e := range targets {
			if plan.SID[e.Callee] != want {
				rep.add("cpt-closure", nameOf(g, e.Callee), siteName(g, s),
					"dispatch target carries SID %d but the site expects %d: the sets are not merged",
					plan.SID[e.Callee], want)
			}
		}
	}
}

// oraclePieceStarts returns the entry plus every true, in-range anchor key,
// in increasing node order.
func oraclePieceStarts(spec *encoding.Spec) []callgraph.NodeID {
	seen := make(map[callgraph.NodeID]bool, len(spec.Anchors)+1)
	if entry, ok := spec.Graph.Entry(); ok {
		seen[entry] = true
	}
	for n, on := range spec.Anchors {
		if on && n >= 0 && int(n) < spec.Graph.NumNodes() {
			seen[n] = true
		}
	}
	return sortedNodes(seen)
}

func oraclePushEdgeSet(spec *encoding.Spec) map[callgraph.Edge]bool {
	set := make(map[callgraph.Edge]bool, len(spec.Push))
	for e := range spec.Push {
		set[e] = true
	}
	return set
}

func oracleNodeFingerprints(spec *encoding.Spec) []uint64 {
	g := spec.Graph
	fps := make([]uint64, g.NumNodes())
	for _, n := range g.Nodes() {
		h := fnvOffset64
		if spec.Anchors[n] {
			h = h.word(1)
		} else {
			h = h.word(0)
		}
		for _, e := range g.Out(n) {
			h = h.word(uint64(uint32(e.Label)))
			h = h.word(uint64(uint32(e.Callee)))
			if kind, ok := spec.Push[e]; ok {
				h = h.word(2 + uint64(kind))
			} else {
				h = h.word(1)
			}
			h = h.word(spec.AV(e))
		}
		fps[n] = uint64(h)
	}
	return fps
}

// oracleTerritory computes the nodes and edges reachable from start by the
// bounded DFS of Section 3.2: traversal retreats at other anchors (which
// still belong to the territory as its boundary) and never crosses push
// edges.
func oracleTerritory(spec *encoding.Spec, start callgraph.NodeID) (map[callgraph.NodeID]bool, map[callgraph.Edge]bool) {
	g := spec.Graph
	nodes := map[callgraph.NodeID]bool{start: true}
	edges := make(map[callgraph.Edge]bool)
	work := []callgraph.NodeID{start}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v != start && spec.Anchors[v] {
			continue
		}
		for _, e := range g.Out(v) {
			if _, pushed := spec.Push[e]; pushed {
				continue
			}
			edges[e] = true
			if !nodes[e.Callee] {
				nodes[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	return nodes, edges
}

type oracleInterval struct {
	e     callgraph.Edge
	av    uint64
	width uint64
}

// oracleProveTerritory proves one piece start's territory by walking the
// whole topological order and keeping ICC in a map.
func oracleProveTerritory(spec *encoding.Spec, start callgraph.NodeID,
	topo []callgraph.NodeID, maxID uint64) territoryObligation {

	g := spec.Graph
	ob := territoryObligation{start: start, maxCap: 1}
	sub := &Report{}
	nodes, edges := oracleTerritory(spec, start)
	icc := make(map[callgraph.NodeID]uint64, len(nodes))
	icc[start] = 1
	for _, n := range topo {
		if n == start || !nodes[n] {
			continue
		}
		var in []oracleInterval
		for _, e := range g.In(n) {
			if !edges[e] {
				continue
			}
			w, ok := icc[e.Caller]
			if !ok {
				continue
			}
			in = append(in, oracleInterval{e: e, av: spec.AV(e), width: w})
		}
		if len(in) == 0 {
			continue
		}
		sort.Slice(in, func(i, j int) bool {
			if in[i].av != in[j].av {
				return in[i].av < in[j].av
			}
			return less(in[i].e, in[j].e)
		})
		ob.intervals += len(in)
		nodeOK := true
		var iccN uint64
		for i, iv := range in {
			if iv.av > maxID-iv.width {
				sub.add("capacity", nameOf(g, n), siteName(g, iv.e.Site()),
					"piece capacity overflows the integer limit: addition value %d + width %d > %d (territory of %s)",
					iv.av, iv.width, maxID, nameOf(g, start))
				nodeOK = false
				iccN = maxID
				continue
			}
			if end := iv.av + iv.width; end > iccN {
				iccN = end
			}
			if i+1 < len(in) {
				next := in[i+1]
				if gap := next.av - iv.av; gap < iv.width {
					sub.add("intervals", nameOf(g, n), siteName(g, iv.e.Site()),
						"in-edge ranges overlap in territory of %s: [%d,%d) from %s collides with [%d,...) from %s — two paths share an encoding",
						nameOf(g, start), iv.av, iv.av+iv.width, nameOf(g, iv.e.Caller),
						next.av, nameOf(g, next.e.Caller))
					nodeOK = false
				}
			}
		}
		icc[n] = iccN
		if iccN > ob.maxCap {
			ob.maxCap = iccN
		}
		if nodeOK {
			used := uint64(0)
			for _, iv := range in {
				used += iv.width
			}
			ob.holes += iccN - used
		}
	}
	ob.members = sortedNodes(nodes)
	ob.findings = sub.Findings
	return ob
}

func oracleProveAll(spec *encoding.Spec, starts, topo []callgraph.NodeID, maxID uint64) []territoryObligation {
	obs := make([]territoryObligation, len(starts))
	for i, s := range starts {
		obs[i] = oracleProveTerritory(spec, s, topo, maxID)
	}
	return obs
}

func less(a, b callgraph.Edge) bool {
	if a.Caller != b.Caller {
		return a.Caller < b.Caller
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.Callee < b.Callee
}

func sortedNodes[V any](m map[callgraph.NodeID]V) []callgraph.NodeID {
	out := make([]callgraph.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedSites[V any](m map[callgraph.Site]V) []callgraph.Site {
	out := make([]callgraph.Site, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func sortedEdges[V any](m map[callgraph.Edge]V) []callgraph.Edge {
	out := make([]callgraph.Edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
