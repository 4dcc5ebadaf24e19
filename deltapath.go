// Package deltapath is the public API of this repository: a complete
// implementation of "DeltaPath: Precise and Scalable Calling Context
// Encoding" (Zeng, Rhee, Zhang, Arora, Jiang, Liu — CGO 2014).
//
// DeltaPath tracks the calling context of a running program as a small
// integer maintained by constant-time additions at call sites, and decodes
// that integer — precisely and instantly — back into the exact sequence of
// active method invocations. Unlike its predecessors it supports
// object-oriented programs (one addition value per call site, even under
// dynamic dispatch), large programs (anchor nodes divide contexts so no
// integer ever overflows), and dynamic class loading (call path tracking
// detects unexpected call paths and keeps encodings correct).
//
// The pipeline mirrors the paper's implementation (Section 5):
//
//	program source (package lang / minivm)
//	    │  Analyze: call-graph construction (cha) + Algorithm 2 (core)
//	    ▼         + SID computation (cpt)
//	Analysis
//	    │  NewSession: bind addition values / anchors / SIDs to the
//	    ▼  program's call sites and method entries (instrument)
//	Session ──── Run / probes ───▶ per-emit Context records
//	    │  Decode: invert an encoding into the exact method sequence
//	    ▼
//	[]Frame (with explicit gaps where unanalysed code ran)
//
// Quick start:
//
//	prog, _ := deltapath.ParseProgram(src)
//	an, _ := deltapath.Analyze(prog, deltapath.Options{})
//	contexts, _ := an.Run(0, nil)
//	for _, c := range contexts {
//	    names, _ := an.Decode(c)
//	    fmt.Println(strings.Join(names, " > "))
//	}
//
// See the examples directory for event logging, context-sensitive
// profiling, and dynamic-class-loading scenarios, and cmd/dpbench for the
// full reproduction of the paper's evaluation.
package deltapath

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/chaos"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
	"deltapath/internal/profile"
	"deltapath/internal/rta"
	"deltapath/internal/verify"
)

// Sentinel decode errors, re-exported so callers can distinguish a corrupt
// encoding (a damaged record, or a record decoded against the wrong
// analysis) from API misuse. Match with errors.Is.
var (
	ErrCorruptEncoding = encoding.ErrCorruptEncoding
	ErrNoMatchingEdge  = encoding.ErrNoMatchingEdge
	ErrResidualID      = encoding.ErrResidualID
)

// Program is a minivm program (re-exported for API convenience).
type Program = minivm.Program

// MethodRef names a method: Class.method.
type MethodRef = minivm.MethodRef

// ParseProgram parses the textual program form (see package lang for the
// grammar).
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// Options configures Analyze.
type Options struct {
	// ApplicationOnly selects the encoding-application setting
	// (Section 4.2): library classes are excluded from analysis and
	// instrumentation, and call path tracking bridges the gaps.
	ApplicationOnly bool

	// DisableCPT turns call path tracking off. Only safe for programs
	// with no dynamic class loading and full instrumentation; kept for
	// overhead experiments.
	DisableCPT bool

	// MaxID caps the encoding integer (inclusive). Zero means 2^63-1.
	// Algorithm 2 introduces anchor nodes as needed to respect it.
	MaxID uint64

	// TargetMethods, when non-empty, enables the pruned encoding of
	// Section 8 (Future Work): only methods that can reach one of the
	// targets ("Class.method" names) — plus the targets themselves —
	// are encoded; everything else is skipped, with call path tracking
	// keeping the remaining contexts exact. Requires call path tracking
	// (incompatible with DisableCPT).
	TargetMethods []string

	// TrunkAnchors forces the named methods to be anchor nodes — the
	// DeltaPath half of Section 8's hybrid encoding, where profiling
	// identifies hot "trunk" functions and contexts are encoded relative
	// to them.
	TrunkAnchors []string

	// GraphBuilder selects the call-graph construction algorithm the
	// analysis is built over. The default (GraphCHA) instruments every
	// statically loaded method, matching a Java agent; GraphRTA grows the
	// graph from the entry by on-the-fly reachability — tighter encoding
	// space, but methods only dynamic code can reach are left to call path
	// tracking, so it requires CPT (incompatible with DisableCPT).
	GraphBuilder GraphBuilder
}

// GraphBuilder names a call-graph construction algorithm (see
// Options.GraphBuilder).
type GraphBuilder int

const (
	// GraphCHA: class hierarchy analysis over every statically loaded
	// method (internal/cha), the paper's WALA-equivalent default.
	GraphCHA GraphBuilder = iota
	// GraphRTA: on-the-fly reachability from the entry (internal/rta);
	// strictly no more nodes or edges than GraphCHA.
	GraphRTA
)

func (b GraphBuilder) String() string {
	if b == GraphRTA {
		return "rta"
	}
	return "cha"
}

// Analysis is the static-analysis product: everything needed to run a
// program with encoding probes and to decode the results.
//
// An Analysis is versioned in epochs. Epoch 0 is the whole-program analysis
// Analyze produces; each successful Extend — absorbing dynamically loaded
// classes into the analysed world — publishes the next epoch as a new
// immutable snapshot behind an atomic pointer. Readers (sessions, decoders,
// profile pipelines) pin the epoch current when they start and never see a
// torn or half-updated analysis; contexts and profiles decode against the
// epoch they were captured under, forever.
type Analysis struct {
	prog *Program
	opts Options

	// cur is the current epoch; Extend swaps it atomically. Immutable once
	// published — all epoch fields are read-only after construction, safe
	// for concurrent use without locks.
	cur atomic.Pointer[epochState]
	// epochMu serializes Extend and guards epochs (every epoch ever
	// published, indexed by id). Published epochs are never dropped: old
	// profiles route to their recorded epoch through this list.
	epochMu sync.Mutex
	epochs  []*epochState

	// obsMu guards the observability state (see observe.go). obsReg/tracer
	// stay nil until EnableMetrics/EnableTracing — the no-op default.
	obsMu  sync.Mutex
	obsReg *obs.Registry
	tracer *obs.Tracer
}

// epochState is one immutable published analysis epoch: a consistent
// (graph, encoding, instrumentation plan, compiled decoder) snapshot.
type epochState struct {
	id      uint64
	build   *cha.Result
	result  *core.Result
	plan    *instrument.Plan
	decoder *encoding.CompiledDecoder
	digest  analysisio.GraphDigest
	// absorbed lists the dynamic classes analysed as of this epoch, in
	// absorption order (empty at epoch 0).
	absorbed []string
	// cert is the verifier's reusable proof state, set when this epoch
	// passed the soundness gate (nil at epoch 0, which Analyze publishes
	// unverified). The next Extend proves its delta against it via
	// verify.CheckDelta instead of a whole-graph pass.
	cert *verify.Certificate
}

// epoch returns the current epoch snapshot.
func (a *Analysis) epoch() *epochState { return a.cur.Load() }

// graphDigest returns the digest of the current epoch's call graph.
func (a *Analysis) graphDigest() analysisio.GraphDigest { return a.epoch().digest }

// GraphDigest describes the call graph the current epoch was built over
// (node/edge counts plus a content hash) — the compatibility key that .dpa
// analysis files and .dpp profiles carry.
func (a *Analysis) GraphDigest() string { return a.graphDigest().String() }

// Epoch reports the current analysis epoch: 0 until the first successful
// Extend, then incrementing by one per extension.
func (a *Analysis) Epoch() uint64 { return a.epoch().id }

// Absorbed returns the names of the dynamic classes incremental extensions
// have absorbed into the analysed world so far, in absorption order.
func (a *Analysis) Absorbed() []string {
	abs := a.epoch().absorbed
	out := make([]string, len(abs))
	copy(out, abs)
	return out
}

// Analyze builds the call graph, runs the DeltaPath encoding algorithm
// (Algorithm 2), computes SIDs for call path tracking, and resolves the
// instrumentation plan.
func Analyze(prog *Program, opts Options) (*Analysis, error) {
	setting := cha.EncodingAll
	if opts.ApplicationOnly {
		setting = cha.EncodingApplication
	}
	var exclude map[minivm.MethodRef]bool
	if len(opts.TargetMethods) > 0 {
		if opts.DisableCPT {
			return nil, fmt.Errorf("deltapath: pruned encoding requires call path tracking")
		}
		targets := make(map[minivm.MethodRef]bool, len(opts.TargetMethods))
		for _, name := range opts.TargetMethods {
			dot := strings.LastIndexByte(name, '.')
			if dot <= 0 || dot == len(name)-1 {
				return nil, fmt.Errorf("deltapath: target %q is not a Class.method name", name)
			}
			targets[minivm.MethodRef{Class: name[:dot], Method: name[dot+1:]}] = true
		}
		var err error
		if exclude, err = cha.PruneForTargets(prog, targets); err != nil {
			return nil, err
		}
	}
	// KeepUnreachable: a Java agent instruments every class it sees
	// loaded, including methods the static call graph considers
	// unreachable — which is what makes contexts decodable when dynamic
	// code calls into them (they become piece-start anchors). The RTA
	// builder deliberately gives that up for a tighter graph, so it leans
	// on call path tracking for any method it pruned.
	var build *cha.Result
	var err error
	buildOpts := cha.Options{
		Setting:         setting,
		KeepUnreachable: true,
		ExcludeMethods:  exclude,
	}
	switch opts.GraphBuilder {
	case GraphRTA:
		if opts.DisableCPT {
			return nil, fmt.Errorf("deltapath: the RTA graph builder requires call path tracking")
		}
		build, err = rta.Build(prog, buildOpts)
	default:
		build, err = cha.Build(prog, buildOpts)
	}
	if err != nil {
		return nil, err
	}
	var force []callgraph.NodeID
	for _, name := range opts.TrunkAnchors {
		n := build.Graph.Lookup(name)
		if n == callgraph.InvalidNode {
			return nil, fmt.Errorf("deltapath: trunk anchor %q is not in the call graph", name)
		}
		force = append(force, n)
	}
	res, err := core.Encode(build.Graph, core.Options{MaxID: opts.MaxID, ForceAnchors: force})
	if err != nil {
		return nil, err
	}
	var cptPlan *cpt.Plan
	if !opts.DisableCPT {
		cptPlan = cpt.Compute(build.Graph)
	}
	plan, err := instrument.NewPlan(build, res.Spec, cptPlan)
	if err != nil {
		return nil, err
	}
	a := &Analysis{prog: prog, opts: opts}
	a.publish(&epochState{
		build:   build,
		result:  res,
		plan:    plan,
		decoder: encoding.Compile(res.Spec),
		digest:  analysisio.DigestGraph(build.Graph),
	})
	return a, nil
}

// publish registers ep as the next epoch and makes it current. Callers other
// than Analyze (which runs before the Analysis escapes) must hold epochMu.
func (a *Analysis) publish(ep *epochState) {
	ep.id = uint64(len(a.epochs))
	a.epochs = append(a.epochs, ep)
	a.cur.Store(ep)
}

// epochByDigest finds the published epoch whose call graph carries the given
// digest — the router profile decoding uses: each extension changes the
// graph and therefore the digest, so the digest a .dpp header records
// identifies its epoch. Needs epochMu.
func (a *Analysis) epochByDigest(d analysisio.GraphDigest) *epochState {
	for _, ep := range a.epochs {
		if ep.digest == d {
			return ep
		}
	}
	return nil
}

// ExtendStats reports what one Analysis.Extend did: the epoch it published,
// the classes it absorbed, and how much of the encoding the incremental pass
// actually recomputed (the win over a from-scratch re-analysis).
type ExtendStats struct {
	// Epoch is the id of the published epoch.
	Epoch uint64 `json:"epoch"`
	// NewClasses lists the dynamic classes this call absorbed (including
	// super-closure additions), in absorption order. Empty when every
	// requested class was already absorbed — the call was a no-op and
	// Epoch is the unchanged current epoch.
	NewClasses []string `json:"new_classes,omitempty"`
	// Core carries the incremental encoder's dirty-territory counters.
	Core core.ExtendStats `json:"core"`
	// VerifyNs is the wall time the soundness gate spent proving the new
	// epoch; VerifyDelta reports whether it proved incrementally against
	// the previous epoch's certificate (false on the first extension, and
	// on fallback when the certificate went stale).
	VerifyNs    int64 `json:"verify_ns"`
	VerifyDelta bool  `json:"verify_delta"`
	// DirtyTerritories of TotalTerritories were re-proven by the gate, and
	// ObligationsChecked of ObligationsTotal interval obligations actually
	// re-derived — the gate's proof reuse (equal when the gate ran a full
	// pass).
	DirtyTerritories   int `json:"dirty_territories"`
	TotalTerritories   int `json:"total_territories"`
	ObligationsChecked int `json:"obligations_checked"`
	ObligationsTotal   int `json:"obligations_total"`
}

// Extend absorbs dynamically loaded classes into the analysed world and
// publishes the result as the next analysis epoch. It is the paper's answer
// to dynamic class loading made incremental: instead of tolerating unknown
// code through call path tracking forever (sound, but every entry into
// dynamic code costs a hazard check and an encoding gap), the analysis
// re-models the named classes as ordinary graph nodes — recomputing addition
// values, anchors and SIDs only for the dirty territory of the delta — so
// subsequent runs encode through them with zero hazards and no gaps.
//
// Classes must name dynamic classes of the analysed program; superclasses
// are absorbed automatically (the VM loads supers first). Classes already
// absorbed are skipped — extending with an absorbed set is a no-op, not an
// error — and if nothing remains the current epoch is returned unchanged.
//
// The new epoch is verified (internal/verify) before it is published: a
// delta that fails the soundness certificate is rejected and the current
// epoch stays in place, untouched. Publication is atomic — in-flight
// sessions, decoders and profile pipelines keep the epoch they pinned, and
// never observe a half-updated analysis. Existing sessions keep encoding
// under their old epoch until Session.Adopt moves them forward; profiles
// saved under any earlier epoch decode forever (DecodeProfile routes each
// .dpp to the epoch whose digest it records).
//
// Extend calls are serialized; concurrent calls queue. It is incompatible
// with the RTA graph builder and with pruned (target-method) encodings.
func (a *Analysis) Extend(classes ...string) (*ExtendStats, error) {
	if a.opts.GraphBuilder == GraphRTA {
		return nil, fmt.Errorf("deltapath: Extend requires the CHA graph builder (RTA graphs grow from the entry and cannot absorb unreachable classes)")
	}
	if len(a.opts.TargetMethods) > 0 {
		return nil, fmt.Errorf("deltapath: Extend does not support pruned (target-method) encodings")
	}
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	cur := a.cur.Load()

	// Super-closure expansion, oldest ancestor first: absorbing Sub without
	// its dynamic super Base would leave Sub's inherited dispatch dangling.
	have := make(map[string]bool, len(cur.absorbed))
	for _, name := range cur.absorbed {
		have[name] = true
	}
	var fresh []string
	var addClosure func(name string) error
	addClosure = func(name string) error {
		if have[name] {
			return nil
		}
		c := a.prog.Class(name)
		if c == nil {
			return fmt.Errorf("deltapath: class %q is not in the program", name)
		}
		if dyn := dynamicClassOf(a.prog, name); dyn == nil {
			// Static classes are analysed from epoch 0; absorbing one is
			// a no-op, matching the already-absorbed rule.
			return nil
		}
		if c.Super != "" && dynamicClassOf(a.prog, c.Super) != nil {
			if err := addClosure(c.Super); err != nil {
				return err
			}
		}
		have[name] = true
		fresh = append(fresh, name)
		return nil
	}
	for _, name := range classes {
		if err := addClosure(name); err != nil {
			return nil, err
		}
	}
	if len(fresh) == 0 {
		return &ExtendStats{Epoch: cur.id}, nil
	}
	absorbed := append(append([]string(nil), cur.absorbed...), fresh...)

	setting := cha.EncodingAll
	if a.opts.ApplicationOnly {
		setting = cha.EncodingApplication
	}
	build, err := cha.Extend(cur.build, a.prog, absorbed, cha.Options{
		Setting:         setting,
		KeepUnreachable: true,
	})
	if err != nil {
		return nil, err
	}
	res, coreStats, err := core.Extend(cur.result, build.Graph, core.Options{MaxID: a.opts.MaxID})
	if err != nil {
		return nil, err
	}
	var cptPlan *cpt.Plan
	if !a.opts.DisableCPT {
		cptPlan = cpt.Compute(build.Graph)
	}
	// The soundness gate: re-prove the delta before anyone can see it. On
	// any finding the current epoch stays published — callers keep a fully
	// working (if hazard-paying) analysis. When the previous epoch carries
	// a certificate the gate proves incrementally — only the dirty
	// territories re-derive — and falls back to the whole-graph pass if the
	// certificate is stale (a stale certificate costs time, never
	// soundness). Reject-whole semantics are identical either way:
	// CheckDelta accepts exactly when Check would.
	verifyStart := time.Now()
	var rep *verify.Report
	verifyDelta := false
	if cur.cert != nil {
		if drep, derr := verify.CheckDelta(cur.cert, res.Spec, cptPlan,
			coreStats.DirtyTerritoryList, verify.Options{}); derr == nil {
			rep, verifyDelta = drep, true
		}
	}
	if rep == nil {
		rep = verify.Check(res.Spec, cptPlan, verify.Options{})
	}
	verifyNs := time.Since(verifyStart).Nanoseconds()
	if !rep.Clean() {
		rep.Source = fmt.Sprintf("extend epoch %d", cur.id+1)
		return nil, fmt.Errorf("deltapath: extension rejected, keeping epoch %d: verification failed:\n%s",
			cur.id, strings.TrimRight(rep.Text(), "\n"))
	}
	plan, err := instrument.NewPlanFrom(build, res.Spec, cptPlan, cur.plan)
	if err != nil {
		return nil, err
	}
	ep := &epochState{
		build:    build,
		result:   res,
		plan:     plan,
		decoder:  encoding.Compile(res.Spec),
		digest:   analysisio.DigestGraph(build.Graph),
		absorbed: absorbed,
		cert:     rep.Certificate,
	}
	a.publish(ep)
	a.epochGauges(ep)
	stats := &ExtendStats{
		Epoch:       ep.id,
		NewClasses:  fresh,
		Core:        *coreStats,
		VerifyNs:    verifyNs,
		VerifyDelta: verifyDelta,
	}
	stats.TotalTerritories = rep.Stats.PieceStarts
	if rep.Delta != nil {
		stats.DirtyTerritories = rep.Delta.DirtyTerritories
		stats.ObligationsChecked = rep.Delta.ObligationsChecked
		stats.ObligationsTotal = rep.Delta.ObligationsTotal
	} else {
		stats.DirtyTerritories = rep.Stats.PieceStarts
		stats.ObligationsChecked = rep.Stats.IntervalsChecked
		stats.ObligationsTotal = rep.Stats.IntervalsChecked
	}
	return stats, nil
}

func dynamicClassOf(prog *Program, name string) *minivm.Class {
	for _, c := range prog.Dynamic {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Anchors returns the names of the overflow anchor nodes Algorithm 2 added
// (under the current epoch).
func (a *Analysis) Anchors() []string {
	e := a.epoch()
	out := make([]string, 0, len(e.result.OverflowAnchors))
	for _, n := range e.result.OverflowAnchors {
		out = append(out, e.build.Graph.Name(n))
	}
	return out
}

// MaxID returns the largest encoding ID any context can produce under the
// current epoch — the static encoding-space requirement.
func (a *Analysis) MaxID() uint64 { return a.epoch().result.MaxID }

// NumInstrumentedSites reports how many call sites carry instrumentation
// under the current epoch.
func (a *Analysis) NumInstrumentedSites() int { return a.epoch().plan.NumInstrumentedSites() }

// Context is one captured calling-context encoding: the state snapshot plus
// the program point where it was captured. A context pins the analysis epoch
// it was captured under, and decodes against that epoch even after later
// extensions.
//
// A Session carves the piece stacks of the contexts it captures out of
// shared chunks of 512 pieces (a larger stack gets a chunk of its own), so
// a context kept after its emit callback returns keeps its whole chunk
// reachable: a bounded cost, the price of captures that do not allocate
// one by one. A caller that keeps a sparse sample of many contexts (one per
// distinct Key, say) should keep their decoded names or MarshalBinary
// records instead, or the samples hold nearly every chunk of the run.
type Context struct {
	// At is the method containing the emit point.
	At MethodRef
	// Tag is the emit point's tag.
	Tag   string
	state encoding.State
	node  callgraph.NodeID
	known bool
	ep    *epochState
}

// captureChunk is the number of pieces in one chunk of a session's capture
// slab: large enough that a steady-state emit rarely allocates, small
// enough that a retained Context pins little (48 bytes a piece).
const captureChunk = 512

// Epoch reports the analysis epoch the context was captured under.
func (c Context) Epoch() uint64 {
	if c.ep == nil {
		return 0
	}
	return c.ep.id
}

// Session couples a VM with a DeltaPath encoder, ready to run. A session is
// pinned to the analysis epoch current when it was created (or last adopted
// via Adopt): extensions published while it runs do not disturb it.
type Session struct {
	an *Analysis
	vm *minivm.VM
	// mu guards the fields an Adopt swaps (ep, enc, inj). The probe path
	// does not take it — the VM calls one encoder for a whole Run, and
	// Adopt's contract is "not concurrent with Run".
	mu        sync.Mutex
	ep        *epochState
	enc       *instrument.Encoder
	inj       *chaos.Injector // non-nil after EnableChaos
	chaosOpts *ChaosOptions   // remembered so Adopt can re-arm injection
	// heal routes every emit through the self-healing protocol (verify the
	// encoding against the VM stack, resync on mismatch). Set by
	// EnableChaos, and by a mid-run Adopt: frames already on the stack at
	// an epoch swap carry probe tokens minted under the old plan, and as
	// they unwind their pops/subtractions can drift the new encoder's
	// state by a bounded amount — the emit-time check repairs it before
	// any context is captured, the same guarantee chaos runs rely on.
	heal bool
	// slab is the unused tail of the current capture chunk (see Context);
	// only the goroutine running the VM touches it.
	slab []encoding.Element
}

// ChaosOptions configures deterministic fault injection for a session.
type ChaosOptions struct {
	// Seed drives the fault stream; same seed, same faults.
	Seed uint64
	// Rate is the per-probe-event fault probability.
	Rate float64
}

// EnableChaos turns the session into a fault-injection run: probe events
// are routed through a seeded injector (dropped events, encoding-ID bit
// flips, piece-stack truncation, unknown call sites), and the self-healing
// protocol runs at every emit point — an invariant check of the encoding
// against the VM's stack, with a stack-walk resync on any detected
// corruption — so every captured context is exact despite the faults.
// Call before Run; Health reports what happened.
func (s *Session) EnableChaos(opts ChaosOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chaosOpts = &opts
	s.armChaos()
}

// armChaos wraps the current encoder in a fresh injector. Needs s.mu.
func (s *Session) armChaos() {
	s.inj = chaos.NewInjector(s.enc, chaos.Config{Seed: s.chaosOpts.Seed, Rate: s.chaosOpts.Rate})
	s.enc.SetDecoder(s.ep.decoder)
	s.vm.SetProbes(s.inj)
}

// Health reports the session's graceful-degradation counters.
type Health struct {
	// Resyncs counts stack-walk resynchronizations.
	Resyncs uint64
	// CorruptionsDetected counts invariant-checker detections (mismatches,
	// typed decode errors, unbalanced pops).
	CorruptionsDetected uint64
	// DroppedEvents counts probe events the injector suppressed.
	DroppedEvents uint64
	// PartialDecodes counts best-effort decodes that salvaged only a
	// suffix of a corrupt context.
	PartialDecodes uint64
	// FaultsInjected counts injected faults; ProbeEvents counts the probe
	// events that flowed through the injector. Both zero without chaos.
	FaultsInjected uint64
	ProbeEvents    uint64
}

// Health returns the session's health counters. After Adopt the counters
// restart at zero: they describe the current epoch's encoder.
func (s *Session) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Resyncs:             s.enc.Health.Resyncs,
		CorruptionsDetected: s.enc.Health.CorruptionsDetected,
		DroppedEvents:       s.enc.Health.DroppedEvents,
		PartialDecodes:      s.enc.Health.PartialDecodes,
	}
	if s.inj != nil {
		h.FaultsInjected = s.inj.TotalInjected()
		h.ProbeEvents = s.inj.Events()
	}
	return h
}

// NewSession prepares an instrumented execution of the analysed program,
// pinned to the current analysis epoch. seed drives virtual-dispatch choices
// deterministically.
func (a *Analysis) NewSession(seed uint64) (*Session, error) {
	vm, err := minivm.NewVM(a.prog, seed)
	if err != nil {
		return nil, err
	}
	ep := a.epoch()
	enc := instrument.NewEncoder(ep.plan)
	if reg, tr := a.observability(); reg != nil {
		enc.Observe(reg, tr)
		vm.Observe(reg, tr)
	}
	// Restrict first, so installing the probes resolves every method's ids
	// and probe bits in one pass; the fresh VM has loaded no absorbed class
	// yet, so marking them flips nothing.
	vm.SetInstrumented(ep.plan.InstrumentedMethods())
	vm.SetProbes(enc)
	vm.MarkAnalyzed(ep.absorbed...)
	return &Session{an: a, vm: vm, ep: ep, enc: enc}, nil
}

// VM exposes the underlying virtual machine (e.g. for ground-truth stack
// walks in tests and experiments).
func (s *Session) VM() *minivm.VM { return s.vm }

// Epoch reports the analysis epoch the session is encoding under.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ep.id
}

// Hazards reports how many hazardous unexpected call paths the run
// detected (since the session started, or since the last Adopt).
func (s *Session) Hazards() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Hazards
}

// Adopt moves the session forward to the analysis's current epoch: the VM's
// probes are rebound to the new instrumentation plan, newly absorbed classes
// stop counting as dynamic (their calls encode instead of costing hazard
// checks), and — when the VM is mid-run — the encoding state is rebuilt from
// the VM's stack so the very next probe event continues under the new epoch
// with an exact context. Chaos injection, if enabled, is re-armed around the
// new encoder with the original options.
//
// Adopt must not run concurrently with Run on the same session (the VM's
// OnEmit callbacks would race the swap); call it before Run, or from within
// an OnEmit callback, where the VM is quiescent. It reports whether the
// session actually moved (false when already at the current epoch). Health
// counters and Hazards restart at zero with the new encoder.
func (s *Session) Adopt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.an.epoch()
	if ep == s.ep {
		return false
	}
	enc := instrument.NewEncoder(ep.plan)
	if reg, tr := s.an.observability(); reg != nil {
		enc.Observe(reg, tr)
	}
	prev := s.ep
	s.ep = ep
	s.enc = enc
	s.vm.SetProbes(enc)
	s.vm.SetInstrumented(ep.plan.InstrumentedMethods())
	s.vm.MarkAnalyzed(ep.absorbed[len(prev.absorbed):]...)
	if s.chaosOpts != nil {
		s.armChaos()
	}
	if s.vm.Depth() > 0 {
		// Mid-run adoption: the old encoder's state is meaningless under
		// the new addition values, so rebuild from the ground truth.
		enc.SetDecoder(ep.decoder)
		enc.Resync(s.vm)
		// Frames already on the stack hold probe tokens minted under the
		// previous plan; as they unwind, their return-side pops and
		// subtractions can disagree with the rebuilt state (a push the old
		// spec emitted and the new one would not, or an addition value the
		// resync attributed to a different same-callee site). Route the
		// rest of the run through the self-healing emit check so every
		// captured context stays exact while the old frames drain.
		s.heal = true
	}
	return true
}

// capture snapshots the encoding at an emit point in method at, whose node
// is id (-1 outside the analysed graph), copying the encoder's piece stack
// into the capture slab.
func (s *Session) capture(ep *epochState, enc *instrument.Encoder, at MethodRef, tag string, id int32) Context {
	st := enc.State()
	c := Context{At: at, Tag: tag, node: callgraph.NodeID(id), known: id >= 0, ep: ep}
	c.state.ID, c.state.Start = st.ID, st.Start
	if n := len(st.Stack); n > 0 {
		if len(s.slab) < n {
			s.slab = make([]encoding.Element, max(n, captureChunk))
		}
		c.state.Stack = s.slab[:n:n]
		copy(c.state.Stack, st.Stack)
		s.slab = s.slab[n:]
	}
	return c
}

// Run executes the program. If onEmit is non-nil it receives a captured
// Context at every emit point; otherwise all contexts are collected and
// returned.
func (s *Session) Run(onEmit func(Context)) ([]Context, error) {
	var collected []Context
	s.vm.OnEmit = func(v *minivm.VM, m MethodRef, tag string) {
		s.mu.Lock()
		ep, enc, inj, heal := s.ep, s.enc, s.inj, s.heal
		s.mu.Unlock()
		// The VM resolved the emitting method through the plan (or the
		// chaos injector, which delegates to it): its probe id is its node
		// id, or -1 outside the analysed graph.
		id := v.FrameID(v.Depth() - 1)
		if id >= 0 && (inj != nil || heal) {
			// Self-healing protocol: verify the encoding against the
			// VM's stack before capturing, resyncing on corruption, so
			// the captured context is exact despite injected faults.
			enc.VerifyAndResync(v)
		}
		c := s.capture(ep, enc, m, tag, id)
		if onEmit != nil {
			onEmit(c)
		} else {
			collected = append(collected, c)
		}
	}
	if err := s.vm.Run(); err != nil {
		return nil, err
	}
	return collected, nil
}

// Run is the convenience path: analyze-once callers that just want every
// context of one execution. It creates a session and runs it.
func (a *Analysis) Run(seed uint64, onEmit func(Context)) ([]Context, error) {
	s, err := a.NewSession(seed)
	if err != nil {
		return nil, err
	}
	return s.Run(onEmit)
}

// Decode recovers the exact calling context of a captured encoding, from
// the program entry to the capture point. Gaps — stretches of dynamically
// loaded or excluded code the encoding intentionally does not track — are
// rendered as "...". A context decodes against the epoch it was captured
// under, even after later extensions: encodings are meaningful only relative
// to their epoch's addition values.
func (a *Analysis) Decode(c Context) ([]string, error) {
	if !c.known {
		return nil, fmt.Errorf("deltapath: emit point %s is outside the analysed program", c.At)
	}
	return c.decoderOr(a).DecodeNames(&c.state, c.node)
}

// decoderOr returns the decoder of the context's pinned epoch, or a's
// current decoder for contexts without one (the zero Context).
func (c Context) decoderOr(a *Analysis) *encoding.CompiledDecoder {
	if c.ep != nil {
		return c.ep.decoder
	}
	return a.epoch().decoder
}

// DecodeBestEffort is the degraded-mode counterpart of Decode: it never
// fails on a corrupt encoding, instead returning the longest decodable
// suffix of the context with an explicit "..." gap standing in for the
// unrecoverable prefix. complete reports whether the whole context decoded
// (in which case the result equals Decode's). The error is non-nil only
// for API misuse (an emit point outside the analysed program).
func (a *Analysis) DecodeBestEffort(c Context) (names []string, complete bool, err error) {
	if !c.known {
		return nil, false, fmt.Errorf("deltapath: emit point %s is outside the analysed program", c.At)
	}
	dec := c.decoderOr(a)
	frames, complete := dec.DecodeBestEffort(&c.state, c.node)
	return dec.Names(frames), complete, nil
}

// DecodeBytesBestEffort decodes a context record with best-effort
// semantics: a corrupt record yields the longest decodable suffix (behind a
// "..." gap) rather than an error. Only a structurally unreadable record —
// one UnmarshalContext rejects — returns an error.
func (a *Analysis) DecodeBytesBestEffort(record []byte) (names []string, complete bool, err error) {
	st, end, err := encoding.UnmarshalContext(record)
	if err != nil {
		return nil, false, err
	}
	dec := a.epoch().decoder
	frames, complete := dec.DecodeBestEffort(st, end)
	return dec.Names(frames), complete, nil
}

// Key returns the canonical encoding key of a context: equal keys decode to
// equal contexts, so keys serve as exact context identifiers for profiling
// and logging.
func (c Context) Key() string {
	if !c.known {
		return "?" + c.At.String()
	}
	return c.state.Key(c.node)
}

// StackDepth reports the number of encoding pieces representing the
// context (Table 2's stack metric).
func (c Context) StackDepth() int { return c.state.Depth() }

// ID returns the current encoding integer of the context's deepest piece.
func (c Context) ID() uint64 { return c.state.ID }

// MarshalBinary serializes a captured context into a compact binary record
// (typically a handful of bytes): the persistence format for event logs.
// Records from unanalysed emit points cannot be serialized.
func (c Context) MarshalBinary() ([]byte, error) {
	if !c.known {
		return nil, fmt.Errorf("deltapath: emit point %s is outside the analysed program", c.At)
	}
	return encoding.MarshalContext(&c.state, c.node), nil
}

// DecodeBytes decodes a context record produced by Context.MarshalBinary
// under this analysis's current epoch. The analysis (and epoch) must be the
// one — or an identical rerun of the one — that produced the record:
// encodings are meaningful only relative to their addition values.
func (a *Analysis) DecodeBytes(record []byte) ([]string, error) {
	st, end, err := encoding.UnmarshalContext(record)
	if err != nil {
		return nil, err
	}
	return a.epoch().decoder.DecodeNames(st, end)
}

// SaveAnalysis persists the current epoch's analysis — call graph, addition
// values, anchors, SIDs, and the epoch id — so that context records can be
// decoded later by any host holding the file, without the program and
// without re-analysis (see LoadDecoder and cmd/dpdecode -analysis). An
// epoch-0 analysis saves in the pre-epoch format, byte-identical with
// earlier builds.
func (a *Analysis) SaveAnalysis(w io.Writer) error {
	e := a.epoch()
	return analysisio.SaveEpoch(w, e.result.Spec, e.plan.CPT, e.id)
}

// VerifyEncoding statically certifies the encoding this analysis produced:
// addition-value intervals pairwise disjoint (every context ID decodes to
// exactly one path), every recursive cycle anchored, piece capacities
// within the integer limit, SID sets closed under the hazard rules. It is
// the programmatic form of cmd/dplint; a nil return is a soundness
// certificate for every execution, not just the ones the tests ran. The
// returned error lists every finding.
func (a *Analysis) VerifyEncoding() error {
	e := a.epoch()
	rep := verify.Check(e.result.Spec, e.plan.CPT, verify.Options{})
	if rep.Clean() {
		return nil
	}
	rep.Source = "analysis"
	return fmt.Errorf("deltapath: encoding verification failed:\n%s", strings.TrimRight(rep.Text(), "\n"))
}

// OfflineDecoder decodes context records against a persisted analysis.
type OfflineDecoder struct {
	bundle  *analysisio.Bundle
	decoder *encoding.CompiledDecoder
}

// LoadDecoder restores a persisted analysis for offline decoding.
func LoadDecoder(r io.Reader) (*OfflineDecoder, error) {
	bundle, err := analysisio.Load(r)
	if err != nil {
		return nil, err
	}
	return &OfflineDecoder{bundle: bundle, decoder: encoding.Compile(bundle.Spec)}, nil
}

// DecodeBytes decodes a context record produced under the persisted
// analysis.
func (d *OfflineDecoder) DecodeBytes(record []byte) ([]string, error) {
	st, end, err := encoding.UnmarshalContext(record)
	if err != nil {
		return nil, err
	}
	return d.decoder.DecodeNames(st, end)
}

// DecodeBytesBestEffort decodes a context record with best-effort
// semantics (see Analysis.DecodeBytesBestEffort).
func (d *OfflineDecoder) DecodeBytesBestEffort(record []byte) (names []string, complete bool, err error) {
	st, end, err := encoding.UnmarshalContext(record)
	if err != nil {
		return nil, false, err
	}
	frames, complete := d.decoder.DecodeBestEffort(st, end)
	return d.decoder.Names(frames), complete, nil
}

// GraphDigest describes the call graph the persisted analysis was built
// over (node/edge counts plus a content hash).
func (d *OfflineDecoder) GraphDigest() string { return d.bundle.Digest.String() }

// Epoch reports the analysis epoch the persisted analysis was saved at (0
// for whole-program analyses and pre-epoch files).
func (d *OfflineDecoder) Epoch() uint64 { return d.bundle.Epoch }

// CheckAnalysis verifies that a freshly built analysis (at its current
// epoch) matches the persisted one — the guard against decoding records
// from one program version against the analysis of another. It compares the
// live call graph's digest with the digest stored in the analysis file.
func (d *OfflineDecoder) CheckAnalysis(a *Analysis) error {
	return d.bundle.CheckGraph(a.epoch().build.Graph)
}

// --- Concurrent profile pipeline ---
//
// The paper's premise is that a calling context is a small integer, so
// collecting and aggregating millions of contexts should cost almost
// nothing. The profile pipeline delivers that: concurrent sessions intern
// their contexts into one sharded store (Profile), the aggregate streams to
// disk as a compact .dpp file (Profile.Save), and decoding fans the stored
// records over a worker pool into a hot-context report (DecodeProfile).

// ProfileReport is a decoded profile: every distinct calling context with
// its aggregate count, hottest first (fully deterministic order).
type ProfileReport = profile.Report

// HotContext is one row of a ProfileReport.
type HotContext = profile.HotContext

// ProfileRecord is one interned record of a Profile (see Profile.Records).
type ProfileRecord = profile.Record

// Profile aggregates captured contexts into a sharded context-interning
// store. All methods are safe for concurrent use: many sessions — or many
// goroutines of one collector — feed a single Profile without contending
// on a single lock.
type Profile struct {
	an      *Analysis
	ep      *epochState
	store   *profile.Store
	skipped atomic.Uint64
}

// NewProfile returns an empty profile for contexts captured under this
// analysis's current epoch. shards is rounded up to a power of two; <= 0
// selects the default (64). An encoding is only meaningful relative to its
// epoch's addition values, so a profile aggregates one epoch: contexts
// captured under a different epoch are skipped by Add, and the saved .dpp
// records this epoch's digest and id.
func (a *Analysis) NewProfile(shards int) *Profile {
	store := profile.NewStore(shards)
	if reg, _ := a.observability(); reg != nil {
		store.Observe(reg)
	}
	return &Profile{an: a, ep: a.epoch(), store: store}
}

// Epoch reports the analysis epoch the profile aggregates.
func (p *Profile) Epoch() uint64 { return p.ep.id }

// Add records one hit of the captured context. Contexts that cannot join
// the profile — captured at emit points outside the analysed program, or
// under a different analysis epoch than the profile's — are counted as
// skipped; Add reports whether the context was recorded. The record is
// marshalled into a stack buffer and the store copies it only when it
// interns a new context, so adding a known context allocates nothing.
func (p *Profile) Add(c Context) bool {
	if !c.known || c.ep != nil && c.ep != p.ep {
		p.skipped.Add(1)
		return false
	}
	var buf [128]byte
	p.store.Intern(encoding.AppendContext(buf[:0], &c.state, c.node))
	return true
}

// Unique reports the number of distinct contexts recorded.
func (p *Profile) Unique() uint64 { return p.store.Unique() }

// Total reports the aggregate hit count across all contexts.
func (p *Profile) Total() uint64 { return p.store.Total() }

// Skipped reports how many contexts Add rejected (unanalysed emit points,
// or contexts from another epoch).
func (p *Profile) Skipped() uint64 { return p.skipped.Load() }

// Records returns the interned records with their counts in deterministic
// (record-byte) order — the raw data Save streams out.
func (p *Profile) Records() []ProfileRecord { return p.store.Snapshot() }

// Save streams the profile to w in the binary .dpp format: a header
// carrying the profile's epoch — its graph digest and epoch id — then one
// varint-encoded record per distinct context with its count. DecodeProfile
// refuses a .dpp whose digest matches no epoch of the analysis in hand,
// exactly as loading a .dpa analysis file refuses a tampered payload.
// Epoch-0 profiles save in the pre-epoch format, byte-identical with
// earlier builds.
func (p *Profile) Save(w io.Writer) error {
	pw, err := profile.NewWriterEpoch(w, p.ep.digest, p.ep.id)
	if err != nil {
		return err
	}
	if err := pw.WriteSnapshot(p.store); err != nil {
		return err
	}
	return pw.Flush()
}

// Collect runs one concurrent session per seed, interning every emitted
// context into the profile. configure (may be nil) is invoked on each
// session before it runs — e.g. to enable chaos injection, so counts from
// fault-injected runs merge into the same store. onEmit (may be nil) is
// invoked for every recorded context, concurrently from multiple sessions.
// The first session error is returned after every session has finished.
func (p *Profile) Collect(seeds []uint64, configure func(seed uint64, s *Session), onEmit func(Context)) error {
	return p.CollectContext(context.Background(), seeds, configure, onEmit)
}

// CollectContext is Collect with cancellation: sessions whose run has not
// started when ctx is cancelled are skipped, and the call returns ctx.Err()
// once the in-flight sessions finish. (A session already executing runs to
// completion — the VM has no preemption point — so cancellation bounds new
// work, not the longest single run.)
func (p *Profile) CollectContext(ctx context.Context, seeds []uint64, configure func(seed uint64, s *Session), onEmit func(Context)) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(seeds))
	for _, seed := range seeds {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if ctx.Err() != nil {
				return // cancelled before this session started
			}
			s, err := p.an.NewSession(seed)
			if err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			if configure != nil {
				configure(seed, s)
			}
			if ctx.Err() != nil {
				return
			}
			if _, err := s.Run(func(c Context) {
				p.Add(c)
				if onEmit != nil {
					onEmit(c)
				}
			}); err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return ctx.Err()
}

// RunParallel executes the program once per seed, concurrently — the
// Figure 8 worker pattern, with each session keeping its encoding state
// thread-local exactly as the paper's implementation does — and aggregates
// every emitted context into one Profile. onEmit (may be nil) observes
// recorded contexts as they arrive, concurrently.
func (a *Analysis) RunParallel(seeds []uint64, onEmit func(Context)) (*Profile, error) {
	return a.RunParallelContext(context.Background(), seeds, onEmit)
}

// RunParallelContext is RunParallel with cancellation (see CollectContext
// for the exact semantics): a server shutting down cancels ctx and the
// worker pool stops starting new sessions.
func (a *Analysis) RunParallelContext(ctx context.Context, seeds []uint64, onEmit func(Context)) (*Profile, error) {
	p := a.NewProfile(0)
	if err := p.CollectContext(ctx, seeds, nil, onEmit); err != nil {
		return nil, err
	}
	return p, nil
}

// ctxBuf is the per-worker scratch of the profile decode pipeline: a frame
// buffer DecodeInto reuses and a string builder for the rendered context.
// Pooled so steady-state record decoding allocates only the output string.
type ctxBuf struct {
	frames []encoding.Frame
	sb     strings.Builder
}

var ctxBufPool = sync.Pool{New: func() any { return new(ctxBuf) }}

// decodeProfileStream is the shared implementation of DecodeProfile: route
// the profile's recorded (digest, epoch) to a decoder via lookup, then fan
// the records over a worker pool decoding through the compiled flat tables.
func decodeProfileStream(ctx context.Context, r io.Reader, workers int, lookup func(analysisio.GraphDigest, uint64) (*encoding.CompiledDecoder, error), reg *obs.Registry) (*ProfileReport, error) {
	pr, err := profile.NewReader(r)
	if err != nil {
		return nil, err
	}
	dec, err := lookup(pr.Digest(), pr.Epoch())
	if err != nil {
		return nil, err
	}
	g := dec.Spec().Graph
	return profile.DecodeContext(ctx, pr, workers, func(rec []byte) (string, error) {
		st, end, err := encoding.UnmarshalContext(rec)
		if err != nil {
			return "", err
		}
		b := ctxBufPool.Get().(*ctxBuf)
		defer ctxBufPool.Put(b)
		b.frames, err = dec.DecodeInto(b.frames[:0], st, end)
		if err != nil {
			return "", err
		}
		b.sb.Reset()
		for i, f := range b.frames {
			if i > 0 {
				b.sb.WriteString(" > ")
			}
			if f.Gap {
				b.sb.WriteString("...")
			} else {
				b.sb.WriteString(g.Name(f.Node))
			}
		}
		return b.sb.String(), nil
	}, reg)
}

// DecodeProfile decodes a .dpp profile (Profile.Save) recorded under this
// analysis into a hot-context report, fanning records out over workers
// goroutines (workers < 1 means 1). The report is identical for every
// worker count. The profile is routed by its recorded graph digest to the
// epoch that produced it — profiles saved before an extension keep decoding
// against their own epoch forever — and a profile whose digest matches no
// epoch of this analysis is refused.
func (a *Analysis) DecodeProfile(r io.Reader, workers int) (*ProfileReport, error) {
	return a.DecodeProfileContext(context.Background(), r, workers)
}

// DecodeProfileContext is DecodeProfile with cancellation: when ctx is
// cancelled the worker pool stops between records and the call returns
// ctx.Err() — the hook a serving process uses to abort in-flight batch
// decodes on shutdown.
func (a *Analysis) DecodeProfileContext(ctx context.Context, r io.Reader, workers int) (*ProfileReport, error) {
	reg, _ := a.observability()
	return decodeProfileStream(ctx, r, workers, func(d analysisio.GraphDigest, epoch uint64) (*encoding.CompiledDecoder, error) {
		a.epochMu.Lock()
		ep := a.epochByDigest(d)
		a.epochMu.Unlock()
		if ep == nil {
			return nil, fmt.Errorf("deltapath: profile mismatch: profile was recorded over %s (epoch %d), which matches no epoch of this analysis (current graph %s; stale analysis or wrong program?)",
				d, epoch, a.graphDigest())
		}
		return ep.decoder, nil
	}, reg)
}

// DecodeProfile decodes a .dpp profile against the persisted analysis (see
// Analysis.DecodeProfile). A persisted analysis is a single epoch, so the
// profile's digest must match it exactly.
func (d *OfflineDecoder) DecodeProfile(r io.Reader, workers int) (*ProfileReport, error) {
	return d.DecodeProfileContext(context.Background(), r, workers)
}

// DecodeProfileContext is DecodeProfile with cancellation (see
// Analysis.DecodeProfileContext).
func (d *OfflineDecoder) DecodeProfileContext(ctx context.Context, r io.Reader, workers int) (*ProfileReport, error) {
	return decodeProfileStream(ctx, r, workers, func(dig analysisio.GraphDigest, epoch uint64) (*encoding.CompiledDecoder, error) {
		if dig != d.bundle.Digest {
			return nil, fmt.Errorf("deltapath: profile mismatch: profile was recorded over %s (epoch %d), analysis graph is %s (epoch %d) (stale analysis or wrong program?)",
				dig, epoch, d.bundle.Digest, d.bundle.Epoch)
		}
		return d.decoder, nil
	}, nil)
}
