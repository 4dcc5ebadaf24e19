package instrument

import (
	"math/big"
	"slices"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/minivm"
)

// BigEncoder is the runtime half of the design Section 3.2 rejects: the
// encoding ID is an arbitrary-precision integer and every instrumented call
// performs a big.Int addition ("it is very inefficient to represent and
// operate on addition values using some class (e.g., BigInteger in Java)").
// It exists purely as a measured ablation against the anchor-based Encoder;
// it maintains no call path tracking and no decoder is provided.
type BigEncoder struct {
	build *cha.Result
	// siteID resolves a call site to its index in sites; anchor is indexed
	// by graph node id (true = anchor entry: save/reset).
	siteID map[minivm.SiteRef]int32
	sites  []bigSitePayload
	anchor []bool

	id    *big.Int
	saved []*big.Int
	// scratch avoids one allocation per Sub.
	scratch *big.Int
}

type bigSitePayload struct {
	av   *big.Int
	push []callgraph.NodeID // recursive targets
}

// NewBigEncoder binds a big-int analysis to the program entities in build.
func NewBigEncoder(build *cha.Result, res *core.BigResult) *BigEncoder {
	g := build.Graph
	e := &BigEncoder{
		build:   build,
		siteID:  make(map[minivm.SiteRef]int32),
		anchor:  make([]bool, g.NumNodes()),
		id:      big.NewInt(0),
		scratch: big.NewInt(0),
	}
	for _, s := range g.Sites() {
		pay := bigSitePayload{av: res.AV[s]}
		if pay.av == nil {
			pay.av = big.NewInt(0)
		}
		for _, edge := range g.SiteTargets(s) {
			if _, pushed := res.Push[edge]; pushed {
				pay.push = append(pay.push, edge.Callee)
			}
		}
		e.siteID[minivm.SiteRef{In: build.RefOf[s.Caller], Site: s.Label}] = int32(len(e.sites))
		e.sites = append(e.sites, pay)
	}
	for node, anchor := range res.Anchors {
		e.anchor[node] = anchor
	}
	return e
}

// Value returns the current big encoding ID.
func (e *BigEncoder) Value() *big.Int { return e.id }

// Reset clears the state.
func (e *BigEncoder) Reset() {
	e.id.SetInt64(0)
	e.saved = e.saved[:0]
}

// ResolveMethod implements minivm.Probes: the method's graph node id, or
// -1 outside the analysed graph.
func (e *BigEncoder) ResolveMethod(m minivm.MethodRef) int32 { return int32(e.build.Node(m)) }

// ResolveSite implements minivm.Probes: an index into the site payloads,
// or -1 for a site the analysis never modelled.
func (e *BigEncoder) ResolveSite(s minivm.SiteRef) int32 {
	if id, ok := e.siteID[s]; ok {
		return id
	}
	return -1
}

// BeforeCall implements minivm.Probes.
func (e *BigEncoder) BeforeCall(site, target int32) uint8 {
	if site < 0 {
		return 0
	}
	pay := &e.sites[site]
	if target >= 0 && slices.Contains(pay.push, callgraph.NodeID(target)) {
		e.saved = append(e.saved, e.id)
		e.id = big.NewInt(0)
		return tokPushedEdge
	}
	e.id.Add(e.id, pay.av)
	return tokAdded
}

// AfterCall implements minivm.Probes.
func (e *BigEncoder) AfterCall(site, _ int32, token uint8) {
	switch {
	case token&tokPushedEdge != 0:
		e.id = e.saved[len(e.saved)-1]
		e.saved = e.saved[:len(e.saved)-1]
	case token&tokAdded != 0:
		e.id.Sub(e.id, e.sites[site].av)
	}
}

// Enter implements minivm.Probes.
func (e *BigEncoder) Enter(m int32) uint8 {
	if m < 0 || !e.anchor[m] {
		return 0
	}
	e.saved = append(e.saved, e.id)
	e.id = big.NewInt(0)
	return tokPushedAnchor
}

// Exit implements minivm.Probes.
func (e *BigEncoder) Exit(_ int32, token uint8) {
	if token&tokPushedAnchor != 0 {
		e.id = e.saved[len(e.saved)-1]
		e.saved = e.saved[:len(e.saved)-1]
	}
}

// BeginTask implements minivm.TaskProbes.
func (e *BigEncoder) BeginTask(minivm.MethodRef) { e.Reset() }

var _ minivm.TaskProbes = (*BigEncoder)(nil)
