package instrument

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
	"deltapath/internal/stackwalk"
)

// Encoder is the runtime component: it implements minivm.Probes and
// maintains the per-thread encoding state as the program executes. One
// Encoder serves one VM (minivm is single-threaded per VM; create one
// Encoder per VM for concurrent simulations).
//
// Per event it performs only the constant-time work the paper's
// instrumentation performs:
//
//	call site:    (CPT: save expected SID) then either ID += AV or, for a
//	              recursive/pruned edge, push-and-reset;
//	method entry: (CPT: compare SIDs, push-and-reset on hazard;
//	              bookkeeping of the last instrumented frame) and, for an
//	              anchor node, push-and-reset;
//	method exit:  pop whatever the entry pushed;
//	return:       undo what the call site did.
type Encoder struct {
	plan *Plan
	st   *encoding.State

	// Call path tracking state (Section 4.1). expectedValid/expectedSID
	// is the saved expectation; lastNode/lastID track the innermost live
	// instrumented frame and the encoding ID of the context ending
	// there, which the hazard response pushes for precise decoding.
	cptOn         bool
	expectedValid bool
	expectedSID   int32
	expectedSite  callgraph.Site
	lastNode      callgraph.NodeID
	lastID        uint64

	// pendingRecTarget is the callee of a recursive/pruned edge whose
	// BeforeCall just pushed: its entry skips the anchor push, since the
	// pushed piece already starts there (an anchor push would only add
	// an empty piece).
	pendingRecTarget callgraph.NodeID

	// Hazards counts hazardous-UCP pushes (Table 2's UCP columns).
	Hazards uint64

	// MaxID tracks the largest encoding ID observed (Table 2's max. ID).
	MaxID uint64

	// MaxStackDepth tracks the deepest piece stack observed.
	MaxStackDepth int

	// Health holds the graceful-degradation counters (see recover.go).
	Health Health

	// obs holds the observability hooks (see observe.go). The zero value
	// is the default no-op sink; obsReg remembers the registry so lazily
	// built collaborators (the stack walker) can resolve their own hooks.
	obs    encoderObs
	obsReg *obs.Registry

	// suspect is set when the encoder itself observes an impossible event
	// sequence (a pop with no matching push): the state can no longer be
	// trusted and the next VerifyAndResync repairs it unconditionally.
	suspect bool

	// dec decodes the live state for the invariant checker; lazily built
	// (a compiled flat-table decoder), or shared across encoders of one
	// spec via SetDecoder.
	dec *encoding.CompiledDecoder
	// walker captures ground-truth stacks for the checker and for resync;
	// built on first use (its filter is the instrumented-method set).
	// nodeBuf/directBuf are its reused capture buffers.
	walker    *stackwalk.Walker
	nodeBuf   []callgraph.NodeID
	directBuf []bool
}

// Token bits returned by BeforeCall/Enter and consumed by AfterCall/Exit.
// Bits 4–7 are never set: wrappers (internal/chaos) may use them to thread
// their own state through the VM.
const (
	tokAdded uint8 = 1 << iota
	tokPushedEdge
	tokPushedUCP
	tokPushedAnchor
)

// NewEncoder builds the runtime encoder for a plan.
func NewEncoder(plan *Plan) *Encoder {
	e := &Encoder{
		plan:  plan,
		st:    encoding.NewState(plan.entry),
		cptOn: plan.CPT != nil,
	}
	e.seedEntry()
	return e
}

// seedEntry primes the CPT state for program start: the runtime (the JVM)
// is about to invoke the entry method, so the expectation slot holds the
// entry's own SID and the last-frame bookkeeping points at the entry.
func (e *Encoder) seedEntry() {
	e.lastNode = e.plan.entry
	e.lastID = 0
	e.pendingRecTarget = callgraph.InvalidNode
	if e.cptOn {
		e.expectedValid = true
		e.expectedSID = e.plan.CPT.SID[e.plan.entry]
		e.expectedSite = callgraph.Site{Caller: e.plan.entry}
	}
}

// State exposes the live encoding state (snapshot it before storing).
func (e *Encoder) State() *encoding.State { return e.st }

// Reset prepares the encoder for a fresh run of the same program.
func (e *Encoder) Reset() {
	e.st.Reset(e.plan.entry)
	e.expectedValid = false
	e.Hazards = 0
	e.MaxID = 0
	e.MaxStackDepth = 0
	e.Health = Health{}
	e.suspect = false
	e.seedEntry()
}

// BeforeCall implements minivm.Probes: one dense slice index per event.
// site < 0 marks a call site the static analysis never modelled (its only
// targets are dynamic classes) — no payload was inserted there. target < 0
// marks a dynamically loaded callee.
func (e *Encoder) BeforeCall(site, target int32) uint8 {
	if site < 0 {
		return 0
	}
	pay := &e.plan.fastSites[site]
	if e.cptOn {
		e.expectedValid = true
		e.expectedSID = pay.expectedSID
		e.expectedSite = pay.site
		e.obs.sidSaves.Inc()
	}
	av := pay.av
	if (pay.hasPush || pay.perEdge) && target >= 0 {
		// Polymorphic site: resolve the dispatched target's override.
		if t := pay.lookup(callgraph.NodeID(target)); t != nil {
			if t.push {
				e.st.PushCallEdge(t.kind, pay.site, t.node)
				e.pendingRecTarget = t.node
				e.noteDepth()
				e.obs.edgePushes.Inc()
				if e.obs.tracer != nil {
					e.obs.tracer.Record(obs.EvEdgePush, uint64(pay.site.Label), e.st.ID)
				}
				return tokPushedEdge
			}
			av = t.av
		} else if pay.perEdge {
			av = 0 // per-edge mode: a target without an edge AV adds nothing
		}
	}
	// Monomorphic fast path and dynamically loaded targets land here: one
	// unconditional add of the site's value; call path tracking repairs
	// the encoding at the next static entry if the target was dynamic.
	e.st.Add(av)
	if e.st.ID > e.MaxID {
		e.MaxID = e.st.ID
	}
	e.obs.additions.Inc()
	return tokAdded
}

// AfterCall implements minivm.Probes.
func (e *Encoder) AfterCall(site, target int32, token uint8) {
	if token == 0 || site < 0 {
		return
	}
	pay := &e.plan.fastSites[site]
	if token&tokPushedEdge != 0 {
		if _, ok := e.st.TryPop(); !ok {
			e.noteUnderflow()
		}
	} else if token&tokAdded != 0 {
		av := pay.av
		if pay.perEdge && target >= 0 {
			if t := pay.lookup(callgraph.NodeID(target)); t != nil && !t.push {
				av = t.av
			} else {
				av = 0
			}
		}
		e.st.Sub(av)
	}
	// Control is back in the caller: it is now the innermost live
	// instrumented frame, and the current ID is its context's encoding.
	if e.cptOn {
		e.lastNode = pay.site.Caller
		e.lastID = e.st.ID
	}
}

// Enter implements minivm.Probes. m is the method's graph node id; m < 0
// marks a method outside the analysed graph.
func (e *Encoder) Enter(m int32) uint8 {
	if m < 0 {
		return 0
	}
	node := callgraph.NodeID(m)
	pay := &e.plan.fastNodes[m]
	pendingRec := e.pendingRecTarget
	e.pendingRecTarget = callgraph.InvalidNode
	var tok uint8
	if e.cptOn {
		// The entry check CONSUMES the expectation: a matching entry
		// uses it up, so a later entry with an empty slot means control
		// arrived without a preceding instrumented call — necessarily
		// through unanalysed frames. Without consumption, a stale
		// expectation whose SID happens to match would silently corrupt
		// the encoding (a false-benign UCP).
		valid := e.expectedValid
		e.expectedValid = false
		e.obs.sidChecks.Inc()
		if !valid || e.expectedSID != pay.sid {
			// Hazardous unexpected call path: control reached this
			// statically loaded function through frames the static
			// analysis never saw (Section 4.1). Push the suspended
			// piece — it ends at the last live instrumented frame —
			// and restart the encoding here.
			e.st.PushUCP(e.expectedSite, e.lastID, e.lastNode, node)
			e.Hazards++
			e.noteDepth()
			e.obs.ucpPushes.Inc()
			if e.obs.tracer != nil {
				e.obs.tracer.Record(obs.EvUCPPush, uint64(node), e.st.ID)
			}
			tok |= tokPushedUCP
		}
	}
	if pay.anchor && pendingRec != node {
		e.st.PushAnchor(node)
		e.noteDepth()
		e.obs.anchorPushes.Inc()
		if e.obs.tracer != nil {
			e.obs.tracer.Record(obs.EvAnchorPush, uint64(node), e.st.ID)
		}
		tok |= tokPushedAnchor
	}
	if e.cptOn {
		// This method is now the innermost live instrumented frame;
		// the (possibly just reset) ID encodes the context ending here.
		e.lastNode = node
		e.lastID = e.st.ID
	}
	return tok
}

// Exit implements minivm.Probes.
func (e *Encoder) Exit(m int32, token uint8) {
	var popped *encoding.Element
	if token&tokPushedAnchor != 0 {
		if el, ok := e.st.TryPop(); ok {
			popped = &el
			e.obs.anchorPops.Inc()
			if e.obs.tracer != nil {
				e.obs.tracer.Record(obs.EvAnchorPop, uint64(el.OuterEnd), e.st.ID)
			}
		} else {
			e.noteUnderflow()
		}
	}
	if token&tokPushedUCP != 0 {
		if el, ok := e.st.TryPop(); ok {
			popped = &el
		} else {
			e.noteUnderflow()
		}
	}
	if e.cptOn {
		if popped != nil {
			// The pops rewound the encoding to the suspended piece: the
			// element's DecodeID is the encoding of the context ending
			// at its outer frame. (The restored st.ID may additionally
			// contain the in-flight addition of the call site whose
			// invocation led here; DecodeID excludes it.)
			e.lastNode = popped.OuterEnd
			e.lastID = popped.DecodeID
		} else if m >= 0 {
			// After this method's exit instrumentation the ID again
			// encodes a context ending at this method, whoever the
			// caller is — including an unanalysed one that will never
			// run AfterCall.
			e.lastNode = callgraph.NodeID(m)
			e.lastID = e.st.ID
		}
	}
}

// ResolveMethod implements minivm.Probes: the dense id Enter/Exit expect,
// resolved once per loaded method by the VM.
func (e *Encoder) ResolveMethod(m minivm.MethodRef) int32 { return e.plan.MethodID(m) }

// ResolveSite implements minivm.Probes.
func (e *Encoder) ResolveSite(s minivm.SiteRef) int32 { return e.plan.SiteID(s) }

// noteUnderflow records a pop with no matching push: the piece stack has
// been corrupted (dropped events, injected truncation). Before graceful
// degradation this panicked; now the state is flagged suspect and the next
// VerifyAndResync rebuilds it from a stack walk.
func (e *Encoder) noteUnderflow() {
	e.suspect = true
	e.Health.CorruptionsDetected++
	e.obs.underflows.Inc()
	e.obs.corruptions.Inc()
}

func (e *Encoder) noteDepth() {
	if d := e.st.Depth(); d > e.MaxStackDepth {
		e.MaxStackDepth = d
	}
	e.obs.pieceDepth.Observe(uint64(e.st.Depth()))
}

// BeginTask implements minivm.TaskProbes: an executor task runs on a fresh
// stack, so the per-thread encoding state resets, rooted at the task's
// entry (which the analysis made a piece-start anchor). A task rooted at an
// unanalysed method (a dynamically loaded class) resets to the program
// entry with an empty expectation, so its first analysed frame starts a
// piece behind an explicit gap.
func (e *Encoder) BeginTask(entry minivm.MethodRef) {
	node, known := e.plan.Build.NodeOf[entry]
	if !known {
		node = e.plan.entry
	}
	e.st.Reset(node)
	e.pendingRecTarget = callgraph.InvalidNode
	e.lastNode = node
	e.lastID = 0
	if e.cptOn {
		e.expectedValid = known
		if known {
			e.expectedSID = e.plan.CPT.SID[node]
			e.expectedSite = callgraph.Site{Caller: node}
		}
	}
}

var _ minivm.TaskProbes = (*Encoder)(nil)
