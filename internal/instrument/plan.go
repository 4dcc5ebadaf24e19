// Package instrument binds the graph-level output of an encoding analysis
// (an encoding.Spec plus, optionally, a cpt.Plan) to a concrete minivm
// program, playing the role the Javassist-based Java agent plays in the
// paper's implementation (Section 5): it decides, per call site and per
// method entry, exactly which constant-time operations run, and provides
// the runtime Encoder that executes them as the program runs.
package instrument

import (
	"cmp"
	"fmt"
	"slices"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/minivm"
)

// fastSite is the instrumentation attached to one call site, as the encoder
// hot path reads it by dense site id. The common monomorphic case (no
// pushes, no per-target values) is just the single av — one unconditional
// add, no target resolution at all.
type fastSite struct {
	// av is the site's single addition value (DeltaPath). In per-edge
	// mode (PCCE), targets holds the dispatch switch instead.
	av   uint64
	site callgraph.Site
	// expectedSID is saved before the call when call path tracking is on.
	expectedSID int32
	// perEdge marks per-edge mode (PCCE): known targets read their
	// override from targets (0 when absent: no edge, no addition).
	perEdge bool
	// hasPush marks a site with at least one push target: a recursive or
	// pruned edge that starts a new piece.
	hasPush bool
	// targets holds the per-target overrides (push edges and per-edge
	// AVs), ascending by node for a short early-exit scan. Empty for
	// monomorphic sites.
	targets []fastTarget
}

// fastTarget is one dispatch-target override of a polymorphic site.
type fastTarget struct {
	node callgraph.NodeID
	av   uint64
	kind encoding.PieceKind
	push bool
}

// lookup returns the override for node, or nil. Target lists are short
// (a handful of dispatch candidates), so a bounded scan beats hashing.
func (f *fastSite) lookup(node callgraph.NodeID) *fastTarget {
	for i := range f.targets {
		if f.targets[i].node == node {
			return &f.targets[i]
		}
		if f.targets[i].node > node {
			break
		}
	}
	return nil
}

// fastNode is the instrumentation attached to the entry and exit of the
// method whose graph node id is the slice index.
type fastNode struct {
	sid    int32
	anchor bool
}

// Plan is a fully resolved instrumentation plan for one program.
type Plan struct {
	Build *cha.Result
	Spec  *encoding.Spec
	CPT   *cpt.Plan // nil disables call path tracking

	entry callgraph.NodeID

	// The payload tables the encoders index on every probe event:
	// fastSites by the dense site id siteID assigns (the resolver the VM
	// consults once per loaded method), fastNodes by callgraph.NodeID.
	siteID    map[minivm.SiteRef]int32
	fastSites []fastSite
	fastNodes []fastNode

	// Cached query results (previously rebuilt on every call): the
	// instrumented-method and active-site sets are fixed at plan build, so
	// compute them once. Callers must treat the returned maps as
	// read-only — the VM and the stack walker only ever read them.
	instrumented map[minivm.MethodRef]bool
	active       map[minivm.SiteRef]bool
	freeSites    int
}

// NewPlan resolves spec (and cptPlan, which may be nil) against the program
// entities recorded in build. The spec must have been computed over
// build.Graph.
func NewPlan(build *cha.Result, spec *encoding.Spec, cptPlan *cpt.Plan) (*Plan, error) {
	return newPlan(build, spec, cptPlan, nil)
}

// NewPlanFrom builds the plan of an extended analysis (cha.Extend +
// core.Extend output) with dense ids stable across the epoch boundary:
// every call site prev modelled keeps its site id, and new sites append
// after. Method ids are graph node ids, stable by the prefix property.
// Stability is what makes a live plan swap safe for an encoder mid-flight —
// a dense id resolved against the old plan indexes the same entity in the
// new one.
func NewPlanFrom(build *cha.Result, spec *encoding.Spec, cptPlan *cpt.Plan, prev *Plan) (*Plan, error) {
	if prev == nil {
		return nil, fmt.Errorf("instrument: NewPlanFrom needs a previous plan")
	}
	return newPlan(build, spec, cptPlan, prev)
}

func newPlan(build *cha.Result, spec *encoding.Spec, cptPlan *cpt.Plan, prev *Plan) (*Plan, error) {
	if spec.Graph != build.Graph {
		return nil, fmt.Errorf("instrument: spec was computed over a different graph")
	}
	entry, ok := build.Graph.Entry()
	if !ok {
		return nil, fmt.Errorf("instrument: graph has no entry")
	}
	if err := spec.CheckSiteAV(); err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	nb := build.Graph.Numbering()
	if cptPlan != nil && len(cptPlan.Expected) != nb.NumSites() {
		return nil, fmt.Errorf("instrument: CPT expectations cover %d of %d call sites",
			len(cptPlan.Expected), nb.NumSites())
	}
	p := &Plan{
		Build:  build,
		Spec:   spec,
		CPT:    cptPlan,
		entry:  entry,
		siteID: make(map[minivm.SiteRef]int32),
	}
	g := build.Graph
	// Dense site ids follow g.Sites() order (deterministic: caller, label).
	// Under an extension, the previous plan's sites come first, in their old
	// id order: an old caller's site can materialise its first edge only
	// after an absorption (its targets were all dynamic before), and letting
	// it sort among the old sites would shift every later id.
	order := g.Sites()
	if prev != nil {
		ordered := make([]callgraph.Site, 0, len(order))
		old := make(map[callgraph.Site]bool, len(prev.fastSites))
		for i := range prev.fastSites {
			s := prev.fastSites[i].site
			if len(g.SiteTargets(s)) == 0 {
				return nil, fmt.Errorf("instrument: site %v vanished from the extended graph", s)
			}
			old[s] = true
			ordered = append(ordered, s)
		}
		for _, s := range order {
			if !old[s] {
				ordered = append(ordered, s)
			}
		}
		order = ordered
	}
	for _, s := range order {
		k := nb.SiteIndex(s)
		fast := fastSite{site: s, perEdge: spec.PerEdge}
		if !spec.PerEdge {
			fast.av = spec.SiteAV[k]
		}
		for _, e := range g.SiteTargets(s) {
			if kind, pushed := spec.Push[e]; pushed {
				fast.hasPush = true
				fast.targets = append(fast.targets, fastTarget{node: e.Callee, kind: kind, push: true})
			} else if spec.PerEdge {
				fast.targets = append(fast.targets, fastTarget{node: e.Callee, av: spec.EdgeAV[e]})
			}
		}
		slices.SortFunc(fast.targets, func(a, b fastTarget) int { return cmp.Compare(a.node, b.node) })
		if cptPlan != nil {
			fast.expectedSID = cptPlan.Expected[k]
		}
		p.siteID[minivm.SiteRef{In: build.RefOf[s.Caller], Site: s.Label}] = int32(len(p.fastSites))
		p.fastSites = append(p.fastSites, fast)
	}
	// Dense method ids are the graph node ids themselves (already 0..N-1).
	p.fastNodes = make([]fastNode, g.NumNodes())
	p.instrumented = make(map[minivm.MethodRef]bool, len(build.NodeOf))
	for ref, node := range build.NodeOf {
		p.fastNodes[node].anchor = spec.Anchors[node]
		if cptPlan != nil {
			p.fastNodes[node].sid = cptPlan.SID[node]
		}
		p.instrumented[ref] = true
	}
	// Cache the fixed query results the accessors used to rebuild per call.
	p.active = make(map[minivm.SiteRef]bool, len(p.siteID))
	for ref, id := range p.siteID {
		if f := &p.fastSites[id]; p.CPT != nil || f.av != 0 || f.hasPush || f.perEdge {
			p.active[ref] = true
		}
	}
	p.freeSites = len(p.fastSites) - len(p.active)
	return p, nil
}

// SiteID returns the dense id of a call site, or -1 when the static
// analysis never modelled it. The VM resolves each site once per loaded
// method; the encoder hot path then indexes fastSites directly.
func (p *Plan) SiteID(s minivm.SiteRef) int32 {
	if id, ok := p.siteID[s]; ok {
		return id
	}
	return -1
}

// MethodID returns the dense id of a method — its call-graph node id — or
// -1 when the method is outside the analysed graph (dynamic classes).
func (p *Plan) MethodID(m minivm.MethodRef) int32 { return int32(p.Build.Node(m)) }

// InstrumentedMethods returns the set of methods that carry instrumentation,
// for VM.SetInstrumented: exactly the nodes of the analysed call graph.
// The set is fixed at plan build and cached — treat it as read-only.
func (p *Plan) InstrumentedMethods() map[minivm.MethodRef]bool { return p.instrumented }

// Entry returns the graph entry node.
func (p *Plan) Entry() callgraph.NodeID { return p.entry }

// NumInstrumentedSites reports how many call sites carry payloads
// (Table 1's CS column).
func (p *Plan) NumInstrumentedSites() int { return len(p.fastSites) }

// ActiveSites returns the call sites that actually need instrumentation:
// with call path tracking every site saves an expectation, but without it a
// site whose addition value is zero and whose edges never push is
// "encoding free" (Section 8) — the rewriter can skip it entirely. Pass the
// result to VM.SetInstrumentedSites.
// The set is fixed at plan build and cached — treat it as read-only.
func (p *Plan) ActiveSites() map[minivm.SiteRef]bool { return p.active }

// NumFreeSites reports how many sites ActiveSites excludes (cached).
func (p *Plan) NumFreeSites() int { return p.freeSites }
