// Package stackwalk is the trivial exact baseline: obtain the calling
// context by walking the call stack at the point of interest. It is what
// debuggers and error reporters do (Section 7, "Stack Walking"), precise by
// construction but far too expensive for continuous tracking — the very
// motivation for encoding techniques.
//
// On the minivm substrate a walk is a copy of the interpreter's frame list,
// optionally filtered to instrumented (application) methods so its output
// is comparable with selective encodings.
package stackwalk

import (
	"strings"

	"deltapath/internal/callgraph"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
)

// Walker captures calling contexts from a VM by walking its stack.
type Walker struct {
	// Filter, when non-nil, keeps only these methods in captured
	// contexts (mirroring the encoding-application setting).
	Filter map[minivm.MethodRef]bool

	// walks/frames are observability hooks (nil = no-op): how often the
	// expensive ground-truth walk runs, and how many frames it copied —
	// the healer's cost signal.
	walks  *obs.Counter
	frames *obs.Counter
}

// Observe resolves the walker's metric hooks from reg (nil disables).
func (w *Walker) Observe(reg *obs.Registry) {
	w.walks = reg.Counter(obs.MetricStackwalkWalks)
	w.frames = reg.Counter(obs.MetricStackwalkFrames)
}

// Capture returns the current calling context, outermost first.
func (w *Walker) Capture(vm *minivm.VM) []minivm.MethodRef {
	st := vm.Stack()
	w.walks.Inc()
	w.frames.Add(uint64(len(st)))
	if w.Filter == nil {
		return st
	}
	out := st[:0]
	for _, f := range st {
		if w.Filter[f] {
			out = append(out, f)
		}
	}
	return out
}

// CaptureNodesDirect captures the current calling context directly as graph
// nodes, in one pass: filter, map through nodeOf, and append to buf.
// Frames outside the filter or unknown to nodeOf are dropped, matching
// Capture followed by a nodeOf lookup per frame. Alongside the node for
// each kept frame it records whether that frame sits immediately
// above the previous kept frame on the raw stack — i.e. whether the call
// that created it came directly from the previous kept frame, with no
// dropped (unanalysed or filtered-out) frames in between. For the first
// kept frame the flag reports whether it is the raw stack bottom. The
// reencoder uses the flags to place hazardous-UCP pushes exactly where
// the live instrumentation would have, instead of guessing a direct edge
// when one happens to exist. Both buffers may be reused across walks.
func (w *Walker) CaptureNodesDirect(vm *minivm.VM, nodeOf map[minivm.MethodRef]callgraph.NodeID, buf []callgraph.NodeID, dbuf []bool) ([]callgraph.NodeID, []bool) {
	depth := vm.Depth()
	w.walks.Inc()
	w.frames.Add(uint64(depth))
	dropped := false
	for i := 0; i < depth; i++ {
		f := vm.Frame(i)
		if w.Filter != nil && !w.Filter[f] {
			dropped = true
			continue
		}
		n, ok := nodeOf[f]
		if !ok {
			dropped = true
			continue
		}
		buf = append(buf, n)
		dbuf = append(dbuf, !dropped)
		dropped = false
	}
	return buf, dbuf
}

// Key canonicalizes a context for uniqueness accounting.
func Key(ctx []minivm.MethodRef) string {
	parts := make([]string, len(ctx))
	for i, f := range ctx {
		parts[i] = f.String()
	}
	return strings.Join(parts, ">")
}
