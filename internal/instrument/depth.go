package instrument

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/minivm"
)

// DepthEncoder implements the alternative UCP-detection scheme Section 4.1
// sketches and argues against: instead of SID expectations, a per-thread
// counter tracks the number of dynamically loaded frames on the stack,
// incremented and decremented at every dynamic method's entry and exit. A
// statically loaded method detects a UCP when the counter is non-zero.
//
// The paper's two criticisms, both measurable on this implementation:
//
//  1. dynamically loaded classes must be instrumented (the VM must run with
//     SetProbeDynamic(true)), which is sometimes infeasible and always
//     costs probe overhead inside code DeltaPath leaves untouched;
//  2. there is no benign case — every entry reached across dynamic frames
//     pushes, even when the SID check would have sailed through — so piece
//     stacks grow deeper.
//
// Decoding uses the same piece machinery as the main Encoder.
type DepthEncoder struct {
	plan *Plan
	st   *encoding.State

	depth      int
	savedDepth []int

	lastNode callgraph.NodeID
	lastID   uint64

	pendingRecTarget callgraph.NodeID

	// Hazards counts UCP pushes.
	Hazards uint64
}

// NewDepthEncoder builds the depth-tracking runtime for a plan. The plan's
// CPT field is ignored — this scheme needs no SIDs.
func NewDepthEncoder(plan *Plan) *DepthEncoder {
	return &DepthEncoder{
		plan:             plan,
		st:               encoding.NewState(plan.entry),
		lastNode:         plan.entry,
		pendingRecTarget: callgraph.InvalidNode,
	}
}

// State exposes the live encoding state.
func (e *DepthEncoder) State() *encoding.State { return e.st }

// Reset prepares for a fresh run.
func (e *DepthEncoder) Reset() {
	e.st.Reset(e.plan.entry)
	e.depth = 0
	e.savedDepth = e.savedDepth[:0]
	e.lastNode = e.plan.entry
	e.lastID = 0
	e.pendingRecTarget = callgraph.InvalidNode
	e.Hazards = 0
}

// ResolveMethod implements minivm.Probes: the method's graph node id, or
// -1 outside the analysed graph.
func (e *DepthEncoder) ResolveMethod(m minivm.MethodRef) int32 { return e.plan.MethodID(m) }

// ResolveSite implements minivm.Probes.
func (e *DepthEncoder) ResolveSite(s minivm.SiteRef) int32 { return e.plan.SiteID(s) }

// BeforeCall implements minivm.Probes (identical arithmetic to Encoder,
// minus the SID save).
func (e *DepthEncoder) BeforeCall(site, target int32) uint8 {
	if site < 0 {
		return 0
	}
	pay := &e.plan.fastSites[site]
	if pay.hasPush && target >= 0 {
		if t := pay.lookup(callgraph.NodeID(target)); t != nil && t.push {
			e.st.PushCallEdge(t.kind, pay.site, t.node)
			e.pendingRecTarget = t.node
			return tokPushedEdge
		}
	}
	e.st.Add(pay.av)
	return tokAdded
}

// AfterCall implements minivm.Probes.
func (e *DepthEncoder) AfterCall(site, _ int32, token uint8) {
	if token == 0 {
		return
	}
	pay := &e.plan.fastSites[site]
	if token&tokPushedEdge != 0 {
		e.st.Pop()
	} else {
		e.st.Sub(pay.av)
	}
	e.lastNode = pay.site.Caller
	e.lastID = e.st.ID
}

// Enter implements minivm.Probes. Dynamic methods (no payload) bump the
// depth counter; static methods detect a UCP when the counter is non-zero.
func (e *DepthEncoder) Enter(m int32) uint8 {
	if m < 0 {
		// Dynamically loaded (or otherwise unanalysed) method: this is
		// the instrumentation DeltaPath's call path tracking avoids.
		e.depth++
		return 0
	}
	node := callgraph.NodeID(m)
	pendingRec := e.pendingRecTarget
	e.pendingRecTarget = callgraph.InvalidNode
	var tok uint8
	if e.depth != 0 {
		// Unanalysed frames are on the stack below us: unexpected call
		// path. Save the depth, push, and restart the encoding.
		e.st.PushUCP(callgraph.Site{Caller: e.lastNode}, e.lastID, e.lastNode, node)
		e.savedDepth = append(e.savedDepth, e.depth)
		e.depth = 0
		e.Hazards++
		tok |= tokPushedUCP
	}
	if e.plan.fastNodes[m].anchor && pendingRec != node {
		e.st.PushAnchor(node)
		tok |= tokPushedAnchor
	}
	e.lastNode = node
	e.lastID = e.st.ID
	return tok
}

// Exit implements minivm.Probes.
func (e *DepthEncoder) Exit(m int32, token uint8) {
	if m < 0 {
		e.depth--
		return
	}
	var popped *encoding.Element
	if token&tokPushedAnchor != 0 {
		el := e.st.Pop()
		popped = &el
	}
	if token&tokPushedUCP != 0 {
		el := e.st.Pop()
		popped = &el
		e.depth = e.savedDepth[len(e.savedDepth)-1]
		e.savedDepth = e.savedDepth[:len(e.savedDepth)-1]
	}
	if popped != nil {
		// DecodeID, not st.ID: the restored ID may still contain the
		// in-flight addition of the call site that led here.
		e.lastNode = popped.OuterEnd
		e.lastID = popped.DecodeID
	} else {
		e.lastNode = callgraph.NodeID(m)
		e.lastID = e.st.ID
	}
}

// BeginTask implements minivm.TaskProbes.
func (e *DepthEncoder) BeginTask(entry minivm.MethodRef) {
	node, known := e.plan.Build.NodeOf[entry]
	if !known {
		node = e.plan.entry
	}
	e.st.Reset(node)
	e.depth = 0
	e.savedDepth = e.savedDepth[:0]
	e.pendingRecTarget = callgraph.InvalidNode
	e.lastNode = node
	e.lastID = 0
}

var _ minivm.TaskProbes = (*DepthEncoder)(nil)
