// Package pcc implements Probabilistic Calling Context (Bond & McKinley,
// OOPSLA 2007), the state-of-the-art baseline the paper compares against
// (Section 6.2). PCC is a purely runtime mechanism: each thread maintains a
// value V, and every instrumented call site updates it as
//
//	V' = 3·V + cs
//
// where cs is a constant identifying the call site. V is a probabilistically
// unique hash of the current calling context: querying it is cheap and needs
// no static analysis, but distinct contexts can collide and there is no
// decoding — the critical difference from DeltaPath.
//
// As in the paper's head-to-head setup, the Encoder here is implemented on
// the same instrumentation substrate as DeltaPath — the same dense-id minivm
// probes, resolved once per loaded method, over the same instrumented method
// set — so the overhead comparison isolates the encoding arithmetic.
package pcc

import (
	"deltapath/internal/cha"
	"deltapath/internal/minivm"
)

// Encoder implements minivm.Probes maintaining the PCC value V. The saved
// caller value around each call models the callee-local V of the original
// implementation (a compiler temporary there, a shadow stack here).
//
// V is kept to 32 bits, as in Bond & McKinley's Jikes RVM implementation:
// the hash collisions Table 2 observes (PCC collecting fewer unique
// encodings than DeltaPath) are a property of that 32-bit space; a 64-bit V
// would hide the effect at benchmark scale.
type Encoder struct {
	v     uint64
	saved []uint64
	// siteID resolves an instrumented call site to its index in cs, the
	// per-site constants.
	siteID map[minivm.SiteRef]int32
	cs     []uint64
}

// New builds a PCC encoder instrumenting exactly the call sites of the
// analysed call graph in build — the same set DeltaPath instruments.
func New(build *cha.Result) *Encoder {
	e := &Encoder{siteID: make(map[minivm.SiteRef]int32), saved: make([]uint64, 0, 64)}
	for _, s := range build.Graph.Sites() {
		key := minivm.SiteRef{In: build.RefOf[s.Caller], Site: s.Label}
		e.siteID[key] = int32(len(e.cs))
		e.cs = append(e.cs, SiteConstant(key))
	}
	return e
}

// SiteConstant derives the per-site constant cs: a stable FNV-1a hash of
// the site's identity, standing in for the call-site program counter the
// original uses. Exported so the Breadcrumbs-style search decoder can run
// against the same constants.
func SiteConstant(s minivm.SiteRef) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(s.In.Class) {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ '.') * prime
	for _, b := range []byte(s.In.Method) {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ uint64(s.Site)) * prime
	h = (h ^ uint64(s.Site>>8)) * prime
	return h & 0xffffffff
}

// Value returns the current PCC value V — the probabilistic context hash
// recorded at query points.
func (e *Encoder) Value() uint64 { return e.v }

// Reset clears the state for a fresh run.
func (e *Encoder) Reset() {
	e.v = 0
	e.saved = e.saved[:0]
}

// ResolveMethod implements minivm.Probes (PCC keys nothing by method).
func (e *Encoder) ResolveMethod(minivm.MethodRef) int32 { return -1 }

// ResolveSite implements minivm.Probes: an index into the site constants,
// or -1 for a site outside the instrumented set.
func (e *Encoder) ResolveSite(s minivm.SiteRef) int32 {
	if id, ok := e.siteID[s]; ok {
		return id
	}
	return -1
}

// BeforeCall implements minivm.Probes: V' = 3V + cs.
func (e *Encoder) BeforeCall(site, _ int32) uint8 {
	if site < 0 {
		return 0
	}
	e.saved = append(e.saved, e.v)
	e.v = (3*e.v + e.cs[site]) & 0xffffffff
	return 1
}

// AfterCall implements minivm.Probes: restore the caller's V.
func (e *Encoder) AfterCall(_, _ int32, token uint8) {
	if token == 0 {
		return
	}
	e.v = e.saved[len(e.saved)-1]
	e.saved = e.saved[:len(e.saved)-1]
}

// Enter implements minivm.Probes (PCC does nothing at method entries).
func (e *Encoder) Enter(int32) uint8 { return 0 }

// Exit implements minivm.Probes.
func (e *Encoder) Exit(int32, uint8) {}

// BeginTask implements minivm.TaskProbes: V is per-thread state.
func (e *Encoder) BeginTask(minivm.MethodRef) { e.Reset() }

var _ minivm.TaskProbes = (*Encoder)(nil)
