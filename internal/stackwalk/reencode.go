package stackwalk

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/obs"
)

// ReencodeDirect derives a valid encoding.State from a walked stack: the
// state the instrumentation would hold had every probe event along the
// walked path fired correctly. path is the ground-truth call stack filtered
// to analysed methods and mapped to graph nodes, outermost first; entry is
// the program entry, used when the walk saw no analysed frame at all.
//
// This is the recovery half of graceful degradation (the paper's Section 7
// stack-walking baseline turned into a repair tool): when the runtime
// detects that its incrementally maintained state is corrupt — a dropped
// event, a flipped bit — it walks the stack once, replays the walked path
// through the spec with the same rules the encoder applies per event
// (addition values for plain edges, piece pushes for recursive/pruned
// edges and anchors, a hazardous-UCP push where no static edge explains a
// transition), and resumes exact incremental tracking from the result. The
// cost is O(depth), the same bill as one anchor push amortized over the
// events since the fault.
//
// direct, when non-nil, is parallel to path and reports for each frame
// whether it was entered directly from the previous kept frame (see
// Walker.CaptureNodesDirect). A transition that is not direct flowed
// through unanalysed frames, so the replay pushes a hazardous UCP there —
// matching what the live probes did — even when a static edge happens to
// connect the pair. Without the flags a connecting edge is preferred, the
// most compact state consistent with the filtered path. reencodes (nil =
// no-op) counts each state rebuild, the healer's primary rate signal.
func ReencodeDirect(spec *encoding.Spec, entry callgraph.NodeID, path []callgraph.NodeID, direct []bool, reencodes *obs.Counter) *encoding.State {
	reencodes.Inc()
	if len(path) == 0 {
		return encoding.NewState(entry)
	}
	st := encoding.NewState(path[0])
	if spec.Anchors[path[0]] {
		// Task entries are anchors; their Enter pushes an (empty) piece.
		st.PushAnchor(path[0])
	}
	prev := path[0]
	for i, n := range path[1:] {
		viaCall := direct == nil || direct[i+1]
		pushedEdge := false
		if e, ok := findEdge(spec, prev, n); ok && viaCall {
			if kind, push := spec.Push[e]; push {
				st.PushCallEdge(kind, e.Site(), n)
				pushedEdge = true
			} else {
				st.Add(spec.AV(e))
			}
		} else {
			// No static edge explains this transition: control flowed
			// through unanalysed frames. This is exactly the situation
			// call path tracking answers with a hazardous-UCP push, so
			// the replay pushes one too and the decoded context shows a
			// gap here.
			st.PushUCP(callgraph.Site{Caller: prev}, st.ID, prev, n)
		}
		if spec.Anchors[n] && !pushedEdge {
			st.PushAnchor(n)
		}
		prev = n
	}
	return st
}

// findEdge returns a static edge caller→callee, preferring a plain
// (non-push) edge so the replay produces the fewest pieces. When several
// sites connect the pair the choice does not matter for decoding: the
// decoded context is a node sequence, identical whichever site carried the
// call.
func findEdge(spec *encoding.Spec, caller, callee callgraph.NodeID) (callgraph.Edge, bool) {
	var found callgraph.Edge
	ok := false
	for _, e := range spec.Graph.Out(caller) {
		if e.Callee != callee {
			continue
		}
		if _, push := spec.Push[e]; !push {
			return e, true
		}
		if !ok {
			found, ok = e, true
		}
	}
	return found, ok
}
