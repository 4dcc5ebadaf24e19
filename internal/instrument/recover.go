package instrument

import (
	"fmt"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
	"deltapath/internal/stackwalk"
)

// This file is the recovery half of graceful degradation: an invariant
// checker that cross-checks the incrementally maintained encoding against
// the VM's ground-truth stack, and a resync path that rebuilds the state
// from a stack walk when the checker (or the encoder itself) detects
// corruption. The checker costs a decode per call — O(depth) — so it runs
// in chaos and test builds, not on the hot path; resync runs only when
// something is already wrong, after which every subsequent query is exact
// again.

// Health counts graceful-degradation events. The counters are cumulative
// per encoder (reset by Encoder.Reset) and are the operational signal a
// deployment watches: a nonzero CorruptionsDetected with an equal Resyncs
// means faults occurred and were healed; diverging counters mean faults
// are arriving faster than emit points can repair them.
type Health struct {
	// Resyncs counts stack-walk resynchronizations performed.
	Resyncs uint64
	// CorruptionsDetected counts detections: invariant-checker mismatches,
	// typed decode errors, and pops with no matching push.
	CorruptionsDetected uint64
	// DroppedEvents counts probe events a fault-injection wrapper
	// suppressed (written by internal/chaos).
	DroppedEvents uint64
	// PartialDecodes counts best-effort decodes that salvaged only a
	// suffix of a corrupt context.
	PartialDecodes uint64
}

// SetDecoder shares a decoder (compiled from this plan's spec) with the
// invariant checker, so many encoders reuse one set of decode tables.
// Without it the checker lazily compiles its own.
func (e *Encoder) SetDecoder(d *encoding.CompiledDecoder) { e.dec = d }

func (e *Encoder) decoder() *encoding.CompiledDecoder {
	if e.dec == nil {
		e.dec = encoding.Compile(e.plan.Spec)
	}
	return e.dec
}

// walkNodes captures the VM's ground-truth stack, filtered to instrumented
// methods and mapped to graph nodes, plus the per-frame call-adjacency
// flags — the reference the checker compares against and the path the
// resync replays. The buffers are reused across walks (one encoder serves
// one VM, so walks never overlap).
func (e *Encoder) walkNodes(vm *minivm.VM) ([]callgraph.NodeID, []bool) {
	if e.walker == nil {
		e.walker = &stackwalk.Walker{Filter: e.plan.InstrumentedMethods()}
		e.walker.Observe(e.obsReg)
	}
	e.nodeBuf, e.directBuf = e.walker.CaptureNodesDirect(vm, e.plan.Build.NodeOf, e.nodeBuf[:0], e.directBuf[:0])
	return e.nodeBuf, e.directBuf
}

// VerifyState runs the shadow-stack invariant check: decode the live state
// and compare it, gaps removed, with the VM's stack filtered to
// instrumented methods. It must be called at a quiescent point (an emit
// inside an instrumented method), where the encoding represents the
// context ending at the innermost instrumented frame. A nil return means
// the state is consistent; any error means corruption.
func (e *Encoder) VerifyState(vm *minivm.VM) error {
	path, _ := e.walkNodes(vm)
	return e.verifyAgainst(path)
}

func (e *Encoder) verifyAgainst(truth []callgraph.NodeID) error {
	if len(truth) == 0 {
		return nil // inside unanalysed code: nothing to cross-check
	}
	frames, err := e.decoder().Decode(e.st, truth[len(truth)-1])
	if err != nil {
		return err
	}
	i := 0
	for _, f := range frames {
		if f.Gap {
			continue
		}
		if i >= len(truth) || f.Node != truth[i] {
			return fmt.Errorf("shadow-stack mismatch at frame %d: decoded %s, stack has %s",
				i, e.plan.Spec.Graph.Name(f.Node), e.nameAt(truth, i))
		}
		i++
	}
	if i != len(truth) {
		return fmt.Errorf("shadow-stack mismatch: decoded %d frames, stack has %d", i, len(truth))
	}
	return nil
}

func (e *Encoder) nameAt(truth []callgraph.NodeID, i int) string {
	if i >= len(truth) {
		return "<nothing>"
	}
	return e.plan.Spec.Graph.Name(truth[i])
}

// Resync discards the (presumed corrupt) encoding state and re-derives a
// valid one by replaying the walked stack through the spec. O(depth), like
// an anchor push amortized over the events since the fault; afterwards
// incremental tracking resumes and every subsequent query is exact.
func (e *Encoder) Resync(vm *minivm.VM) { e.resyncTo(e.walkNodes(vm)) }

func (e *Encoder) resyncTo(path []callgraph.NodeID, direct []bool) {
	st := stackwalk.ReencodeDirect(e.plan.Spec, e.plan.entry, path, direct,
		e.obsReg.Counter(obs.MetricStackwalkReencodes))
	// Replace in place so references handed out by State() stay live.
	*e.st = *st
	e.pendingRecTarget = callgraph.InvalidNode
	// Conservatively drop any saved call-path expectation: if control next
	// reaches an instrumented entry without an instrumented call, that is
	// treated as a hazard (a gap), never as a false-benign match.
	e.expectedValid = false
	last := e.plan.entry
	if len(path) > 0 {
		last = path[len(path)-1]
	}
	e.lastNode, e.lastID = last, e.st.ID
	e.suspect = false
	e.noteDepth()
	e.Health.Resyncs++
	e.obs.resyncs.Inc()
	if e.obs.tracer != nil {
		e.obs.tracer.Record(obs.EvResync, uint64(e.lastNode), e.st.ID)
	}
}

// VerifyAndResync is the self-healing protocol, intended at emit points of
// chaos/test builds: run the invariant checker and, on any detected
// corruption — a checker mismatch, a typed decode error, or a pop
// underflow the encoder already flagged — fall back to a stack walk and
// rebuild the state. Reports whether a resync happened; afterwards the
// state is guaranteed consistent with the VM's stack.
func (e *Encoder) VerifyAndResync(vm *minivm.VM) bool {
	path, direct := e.walkNodes(vm)
	corrupt := e.suspect
	if !corrupt {
		if err := e.verifyAgainst(path); err != nil {
			e.Health.CorruptionsDetected++
			e.obs.corruptions.Inc()
			corrupt = true
		}
	}
	if !corrupt {
		return false
	}
	// Salvage what the corrupt state still encodes before discarding it —
	// the best-effort output a log pipeline would emit for this window.
	if len(path) > 0 {
		if _, complete := e.decoder().DecodeBestEffort(e.st, path[len(path)-1]); !complete {
			e.Health.PartialDecodes++
			e.obs.partials.Inc()
		}
	}
	e.resyncTo(path, direct)
	return true
}
