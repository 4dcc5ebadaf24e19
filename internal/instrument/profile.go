package instrument

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/minivm"
)

// EdgeProfiler counts call-edge executions. Feed the result to
// core.Options.EdgeProfile so the hottest incoming edge of each node gets
// addition value 0 and its site becomes encoding-free (Section 8's
// profile-guided optimization, adopted from PCCE).
type EdgeProfiler struct {
	build  *cha.Result
	Counts map[callgraph.Edge]uint64

	// siteID and sites resolve a call site of an analysed caller to its
	// graph site, once per loaded method.
	siteID map[minivm.SiteRef]int32
	sites  []callgraph.Site
}

// NewEdgeProfiler builds a profiler over the analysed program in build.
func NewEdgeProfiler(build *cha.Result) *EdgeProfiler {
	return &EdgeProfiler{
		build:  build,
		Counts: make(map[callgraph.Edge]uint64),
		siteID: make(map[minivm.SiteRef]int32),
	}
}

// ResolveMethod implements minivm.Probes: the method's graph node id, or
// -1 outside the analysed graph.
func (p *EdgeProfiler) ResolveMethod(m minivm.MethodRef) int32 { return int32(p.build.Node(m)) }

// ResolveSite implements minivm.Probes: -1 for a site whose caller is
// outside the analysed graph.
func (p *EdgeProfiler) ResolveSite(s minivm.SiteRef) int32 {
	caller, ok := p.build.NodeOf[s.In]
	if !ok {
		return -1
	}
	id, ok := p.siteID[s]
	if !ok {
		id = int32(len(p.sites))
		p.siteID[s] = id
		p.sites = append(p.sites, callgraph.Site{Caller: caller, Label: s.Site})
	}
	return id
}

// BeforeCall implements minivm.Probes.
func (p *EdgeProfiler) BeforeCall(site, target int32) uint8 {
	if site < 0 || target < 0 {
		return 0
	}
	s := p.sites[site]
	p.Counts[callgraph.Edge{Caller: s.Caller, Callee: callgraph.NodeID(target), Label: s.Label}]++
	return 0
}

// AfterCall implements minivm.Probes.
func (p *EdgeProfiler) AfterCall(int32, int32, uint8) {}

// Enter implements minivm.Probes.
func (p *EdgeProfiler) Enter(int32) uint8 { return 0 }

// Exit implements minivm.Probes.
func (p *EdgeProfiler) Exit(int32, uint8) {}

// Profile runs the program once under the profiler and returns the edge
// counts.
func Profile(prog *minivm.Program, build *cha.Result, seed uint64) (map[callgraph.Edge]uint64, error) {
	vm, err := minivm.NewVM(prog, seed)
	if err != nil {
		return nil, err
	}
	prof := NewEdgeProfiler(build)
	vm.SetProbes(prof)
	instr := make(map[minivm.MethodRef]bool, len(build.NodeOf))
	for ref := range build.NodeOf {
		instr[ref] = true
	}
	vm.SetInstrumented(instr)
	if err := vm.Run(); err != nil {
		return nil, err
	}
	return prof.Counts, nil
}

var _ minivm.Probes = (*EdgeProfiler)(nil)
