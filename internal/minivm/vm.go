package minivm

import (
	"errors"
	"fmt"

	"deltapath/internal/obs"
)

// Probes is the instrumentation interface. A static analysis binds encoding
// payloads to call sites and method entries; the resulting encoder
// implements Probes and the VM invokes it at the corresponding events.
//
// Probes are driven by dense integer ids: the VM resolves every method and
// call site to an id once per loaded method (ResolveMethod, ResolveSite) and
// the interpreter hot path passes those ids to the event methods — a slice
// index in the probe instead of a map lookup per event, the minivm analog of
// an agent baking constant operands into rewritten bytecode. Ids are
// probe-defined and must be stable for a ref across resolutions; a negative
// id means "no payload here", which the VM passes through unchanged.
//
// Tokens let an instrumentation site communicate with its matching
// counterpart (BeforeCall→AfterCall around one invocation, Enter→Exit around
// one activation). They model the local variables an instrumenting agent
// would introduce into the rewritten method body; the VM threads them
// through but never interprets them.
//
// A nil Probes means the program runs natively (no instrumentation at all).
type Probes interface {
	// ResolveMethod returns the id Enter/Exit and the call events' target
	// take for m.
	ResolveMethod(m MethodRef) int32
	// ResolveSite returns the id BeforeCall/AfterCall take for s.
	ResolveSite(s SiteRef) int32
	// BeforeCall fires immediately before an invocation at the given call
	// site transfers control to target. For a virtual site, target is the
	// dynamically chosen method — which may belong to a dynamically
	// loaded class the static analysis never saw.
	BeforeCall(site, target int32) (token uint8)
	// AfterCall fires immediately after the invocation returns.
	AfterCall(site, target int32, token uint8)
	// Enter fires at the entry of method m, but only if m was statically
	// loaded: dynamically loaded classes are never instrumented
	// (Section 4.1 — "instrumentation of dynamically loaded classes is
	// completely avoided").
	Enter(m int32) (token uint8)
	// Exit fires at the exit of a statically loaded method m, with the
	// token its Enter returned.
	Exit(m int32, token uint8)
}

// siteSkip is the sentinel site id the VM stores in a loaded method's
// siteIDs table for an encoding-free site (excluded by
// SetInstrumentedSites): the VM skips the probe calls entirely. Sites the
// probe has no payload for keep the probe's own negative id; the probe
// fires and ignores it.
const siteSkip int32 = -2

// EmitFunc receives emit events: the method containing the OpEmit, its tag,
// and the VM (whose Stack method gives the ground-truth calling context).
type EmitFunc func(vm *VM, m MethodRef, tag string)

// TaskProbes is implemented by probes that need task boundaries: the VM
// calls BeginTask before each executor task (including the main task)
// starts, so per-thread encoding state can be rooted at the task's entry.
type TaskProbes interface {
	Probes
	BeginTask(entry MethodRef)
}

// loadedMethod is a linked, runnable method. Besides the body it caches,
// per VM (RunParallel runs many VMs over one shared Program), everything
// the interpreter would otherwise look up by name per event.
type loadedMethod struct {
	ref     MethodRef
	body    []Instr
	library bool
	dynamic bool // belongs to a dynamically loaded class

	// entryProbed and callProbed cache whether the method's entry/exit and
	// the call sites inside it fire probes: the per-call answer to the
	// probes, instrumented, probeDynamic and analyzed settings, refreshed
	// by every setter that changes one of them (see setProbed).
	entryProbed bool
	callProbed  bool

	// methodID is the dense probe id for Enter/Exit and the call events'
	// target, resolved while probes are installed; -1 without probes.
	methodID int32
	// sites is indexed by site label (labels are dense per method after
	// Normalize, which counts them).
	sites []callSite
}

// callSite is one call site's cached resolution.
type callSite struct {
	// id is the dense probe id for BeforeCall/AfterCall, or siteSkip for
	// an encoding-free site; resolved only while probes are installed.
	id int32
	// target is a static call's callee, cached on the first execution
	// that finds it loaded; loaded methods are never unloaded.
	target *loadedMethod
	// set is a virtual call's dispatch set, cached on first execution.
	set *dispatchSet
}

// dispatchKey identifies a virtual dispatch set: all loaded declarations of
// Method at or below Class.
type dispatchKey struct {
	Class  string
	Method string
}

// dispatchSet is one virtual dispatch set's candidates in load order. The
// object is shared: load appends to it in place, so every call site that
// cached the set sees a class loaded after the site first dispatched.
type dispatchSet struct {
	cands []*loadedMethod
}

// VM executes a minivm program.
type VM struct {
	prog    *Program
	classes map[string]*Class // name -> definition (static + dynamic)
	static  map[string]bool   // statically loaded class names
	// analyzed marks dynamically loaded classes a later incremental
	// analysis absorbed (Analysis.Extend): their methods are instrumented
	// exactly like static ones from the moment MarkAnalyzed runs.
	analyzed map[string]bool

	loaded  map[string]bool             // currently loaded class names
	methods map[MethodRef]*loadedMethod // loaded methods
	supers  map[string]string           // class -> super
	dtables map[dispatchKey]*dispatchSet

	probes Probes
	// instrumented, when non-nil, restricts probes to the listed methods:
	// only their entries/exits and the call sites inside them fire. This
	// models selective bytecode rewriting (Section 4.2): a method the
	// agent did not rewrite carries no payload anywhere in its body.
	instrumented map[MethodRef]bool
	// instrumentedSites, when non-nil, restricts call-site probes to the
	// listed sites: a site outside the set carries no payload at all.
	// Models "encoding free" sites (profile-guided zero addition values,
	// Section 8) where the rewriter inserts nothing.
	instrumentedSites map[SiteRef]bool
	// probeDynamic additionally fires Enter/Exit probes for dynamically
	// loaded methods. DeltaPath never needs this — avoiding it is a
	// design goal (Section 4.1) — but the depth-tracking alternative the
	// paper sketches requires counters at dynamic entries and exits, so
	// the VM supports it for the ablation.
	probeDynamic bool
	OnEmit       EmitFunc

	rng   uint64
	stack []*loadedMethod

	// Steps counts executed instructions plus work units: the throughput
	// measure used by the Figure 8 experiment ("operations per minute").
	Steps uint64
	sink  uint64

	// MaxDepth bounds the interpreter call stack; exceeding it is a
	// runtime error (the analog of StackOverflowError).
	MaxDepth int

	// Loads counts dynamic class-load events that actually loaded a class.
	Loads int

	// tasks is the executor queue fed by OpSpawn.
	tasks []MethodRef
	// Tasks counts executor tasks run (excluding the main task).
	Tasks int

	// obs holds the interpreter's observability hooks (see Observe). The
	// zero value is the default no-op sink.
	obs vmObs
}

// vmObs is the VM's pre-resolved hook set: interpreter call/return
// volume, emit points, and executor tasks. All fields are nil-safe.
type vmObs struct {
	calls   *obs.Counter
	returns *obs.Counter
	emits   *obs.Counter
	tasks   *obs.Counter
	tracer  *obs.Tracer
}

// Observe resolves the VM's metric hooks from reg and attaches tr for
// event tracing; either may be nil. Trace records carry the call depth as
// the site and the step count as the context, correlating interpreter
// events with the encoder's piece events in one dump.
func (vm *VM) Observe(reg *obs.Registry, tr *obs.Tracer) {
	vm.obs = vmObs{
		calls:   reg.Counter(obs.MetricVMCalls),
		returns: reg.Counter(obs.MetricVMReturns),
		emits:   reg.Counter(obs.MetricVMEmits),
		tasks:   reg.Counter(obs.MetricVMTasks),
		tracer:  tr,
	}
}

// ErrMaxDepth is returned when the interpreter call stack exceeds MaxDepth.
var ErrMaxDepth = errors.New("minivm: maximum call depth exceeded")

// Exception is the error produced by an OpThrow that no OpTry caught. It
// propagates like any error, unwinding interpreter frames — with every
// Exit/AfterCall probe still firing, as a bytecode rewriter's try/finally
// wrappers guarantee.
type Exception struct{ Tag string }

func (e *Exception) Error() string { return "minivm: uncaught exception " + e.Tag }

// AsException reports whether err is an uncaught minivm exception.
func AsException(err error) (*Exception, bool) {
	var ex *Exception
	if errors.As(err, &ex) {
		return ex, true
	}
	return nil, false
}

// NewVM prepares a VM for the program: all static classes are loaded,
// dynamic ones are registered but not loaded. seed drives the deterministic
// virtual-dispatch choice. The program must have been normalized.
func NewVM(prog *Program, seed uint64) (*VM, error) {
	vm := &VM{
		prog:     prog,
		classes:  make(map[string]*Class),
		static:   make(map[string]bool),
		analyzed: make(map[string]bool),
		loaded:   make(map[string]bool),
		methods:  make(map[MethodRef]*loadedMethod),
		supers:   make(map[string]string),
		dtables:  make(map[dispatchKey]*dispatchSet),
		rng:      seed*2654435769 + 0x9e3779b97f4a7c15,
		MaxDepth: 512,
	}
	for _, c := range prog.Classes {
		vm.classes[c.Name] = c
		vm.static[c.Name] = true
	}
	for _, c := range prog.Dynamic {
		if vm.classes[c.Name] != nil {
			return nil, fmt.Errorf("minivm: class %q is both static and dynamic", c.Name)
		}
		vm.classes[c.Name] = c
	}
	// Load static classes in superclass-first order.
	for _, c := range prog.Classes {
		if err := vm.load(c.Name); err != nil {
			return nil, err
		}
	}
	return vm, nil
}

// SetProbes installs (or clears, with nil) the instrumentation probes. The
// VM resolves ids for every loaded method now and for each later dynamic
// load.
func (vm *VM) SetProbes(p Probes) {
	vm.probes = p
	vm.resolveIDs()
}

// SetInstrumented restricts probes to the given methods; nil means every
// statically loaded method is instrumented.
func (vm *VM) SetInstrumented(set map[MethodRef]bool) {
	vm.instrumented = set
	vm.refreshProbed()
}

// SetProbeDynamic makes Enter/Exit probes fire for dynamically loaded
// methods too (depth-tracking ablation only).
func (vm *VM) SetProbeDynamic(on bool) {
	vm.probeDynamic = on
	vm.refreshProbed()
}

// MarkAnalyzed flips the named dynamically loaded classes into the analysed
// world, after an incremental analysis (Analysis.Extend) absorbed them:
// their methods — already loaded or loaded later — are instrumented exactly
// like static ones from now on. Call it after installing the extended
// analysis's probes, which resolve every loaded method's ids whether it is
// dynamic or not; a flip changes only the flipped methods' probe bits.
func (vm *VM) MarkAnalyzed(names ...string) {
	for _, n := range names {
		vm.analyzed[n] = true
	}
	for _, lm := range vm.methods {
		if lm.dynamic && vm.analyzed[lm.ref.Class] {
			lm.dynamic = false
			vm.setProbed(lm)
		}
	}
}

// SetInstrumentedSites restricts call-site probes to the given sites; nil
// means every site within instrumented methods fires. The site-id tables
// bake the exclusion in, so the set must be installed before Run.
func (vm *VM) SetInstrumentedSites(set map[SiteRef]bool) {
	vm.instrumentedSites = set
	vm.resolveIDs()
}

// resolveIDs (re)builds every loaded method's dense probe-id tables and
// probe bits.
func (vm *VM) resolveIDs() {
	for _, lm := range vm.methods {
		vm.resolveMethod(lm)
	}
}

// refreshProbed recomputes every loaded method's probe bits.
func (vm *VM) refreshProbed() {
	for _, lm := range vm.methods {
		vm.setProbed(lm)
	}
}

// setProbed caches whether lm's entry/exit and its call sites fire probes.
// Entries of dynamically loaded methods fire only for the depth-tracking
// ablation, and their call sites never do: un-rewritten code carries no
// payload.
func (vm *VM) setProbed(lm *loadedMethod) {
	switch {
	case vm.probes == nil:
		lm.entryProbed, lm.callProbed = false, false
	case lm.dynamic:
		lm.entryProbed, lm.callProbed = vm.probeDynamic, false
	default:
		inst := vm.instrumented == nil || vm.instrumented[lm.ref]
		lm.entryProbed, lm.callProbed = inst, inst
	}
}

// resolveMethod resolves one method's dense ids against the probes and
// refreshes its probe bits.
func (vm *VM) resolveMethod(lm *loadedMethod) {
	lm.methodID = -1
	if vm.probes != nil {
		lm.methodID = vm.probes.ResolveMethod(lm.ref)
		vm.fillSiteIDs(lm, lm.body)
	}
	vm.setProbed(lm)
}

func (vm *VM) fillSiteIDs(lm *loadedMethod, body []Instr) {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case OpCall, OpVCall:
			s := SiteRef{In: lm.ref, Site: in.Site}
			if vm.instrumentedSites != nil && !vm.instrumentedSites[s] {
				lm.sites[in.Site].id = siteSkip
			} else {
				lm.sites[in.Site].id = vm.probes.ResolveSite(s)
			}
		case OpLoop:
			vm.fillSiteIDs(lm, in.Body)
		case OpTry:
			vm.fillSiteIDs(lm, in.Body)
			vm.fillSiteIDs(lm, in.Handler)
		}
	}
}

// Program returns the program this VM runs.
func (vm *VM) Program() *Program { return vm.prog }

// load links the named class and its not-yet-loaded ancestors.
func (vm *VM) load(name string) error {
	if vm.loaded[name] {
		return nil
	}
	c := vm.classes[name]
	if c == nil {
		return fmt.Errorf("minivm: load of unknown class %q", name)
	}
	if c.Super != "" && !vm.loaded[c.Super] {
		if err := vm.load(c.Super); err != nil {
			return err
		}
	}
	vm.loaded[name] = true
	vm.supers[name] = c.Super
	dynamic := !vm.static[name] && !vm.analyzed[name]
	for _, m := range c.Methods {
		ref := MethodRef{Class: name, Method: m.Name}
		lm := &loadedMethod{
			ref:     ref,
			body:    m.Body,
			library: c.Library,
			dynamic: dynamic,
			sites:   make([]callSite, m.numSites),
		}
		vm.methods[ref] = lm
		vm.resolveMethod(lm)
		// Register in the dispatch set of every ancestor (and self): a
		// vcall on any ancestor type can now dispatch here, including at
		// sites that cached the set before this load.
		for cls := name; cls != ""; cls = vm.supers[cls] {
			ds := vm.dispatchSet(cls, m.Name)
			ds.cands = append(ds.cands, lm)
		}
	}
	return nil
}

// dispatchSet returns the shared dispatch set of a vcall on class.method,
// creating it empty when no loaded class implements the method yet.
func (vm *VM) dispatchSet(class, method string) *dispatchSet {
	k := dispatchKey{Class: class, Method: method}
	ds := vm.dtables[k]
	if ds == nil {
		ds = &dispatchSet{}
		vm.dtables[k] = ds
	}
	return ds
}

// Loaded reports whether the class is currently loaded.
func (vm *VM) Loaded(name string) bool { return vm.loaded[name] }

// Stack returns a copy of the current ground-truth calling context, from
// the entry method (index 0) to the innermost active method.
func (vm *VM) Stack() []MethodRef {
	out := make([]MethodRef, len(vm.stack))
	for i, m := range vm.stack {
		out[i] = m.ref
	}
	return out
}

// Depth returns the current call depth.
func (vm *VM) Depth() int { return len(vm.stack) }

// Frame returns the i-th active method, outermost first (0 ≤ i < Depth).
// With Depth it lets a walker visit the stack without copying it.
func (vm *VM) Frame(i int) MethodRef { return vm.stack[i].ref }

// FrameID returns the probe id the VM resolved for the i-th active method
// (Probes.ResolveMethod), or -1 when no probes are installed. Inside an
// OnEmit callback, FrameID(Depth()-1) is the emitting method's id, which
// spares the callback a lookup by name.
func (vm *VM) FrameID(i int) int32 { return vm.stack[i].methodID }

// nextRand is a splitmix64 step: deterministic, fast, well mixed.
func (vm *VM) nextRand() uint64 {
	vm.rng += 0x9e3779b97f4a7c15
	z := vm.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes the program's entry method to completion, then drains the
// executor queue: each spawned task runs to completion on a fresh stack,
// in spawn order (deterministic). An uncaught exception in a task aborts
// the run, like an uncaught exception killing a worker thread under a
// fail-fast policy.
func (vm *VM) Run() error {
	entry := vm.methods[vm.prog.Entry]
	if entry == nil {
		return fmt.Errorf("minivm: entry method %s is not loaded", vm.prog.Entry)
	}
	if err := vm.runTask(entry); err != nil {
		return err
	}
	for len(vm.tasks) > 0 {
		ref := vm.tasks[0]
		vm.tasks = vm.tasks[1:]
		target := vm.methods[ref]
		if target == nil {
			return fmt.Errorf("minivm: spawned task %s is not loaded", ref)
		}
		vm.Tasks++
		if err := vm.runTask(target); err != nil {
			return err
		}
	}
	return nil
}

// runTask runs one executor task (or the main task) on a fresh stack.
func (vm *VM) runTask(m *loadedMethod) error {
	vm.obs.tasks.Inc()
	if vm.obs.tracer != nil {
		vm.obs.tracer.Record(obs.EvTaskBegin, uint64(len(vm.stack)), vm.Steps)
	}
	if tp, ok := vm.probes.(TaskProbes); ok && vm.probes != nil {
		tp.BeginTask(m.ref)
	}
	return vm.invoke(m)
}

// invoke executes one activation of m, firing Enter/Exit probes for
// statically loaded methods.
func (vm *VM) invoke(m *loadedMethod) error {
	if len(vm.stack) >= vm.MaxDepth {
		return fmt.Errorf("%w (%d)", ErrMaxDepth, vm.MaxDepth)
	}
	vm.stack = append(vm.stack, m)
	vm.obs.calls.Inc()
	if vm.obs.tracer != nil {
		vm.obs.tracer.Record(obs.EvCall, uint64(len(vm.stack)), vm.Steps)
	}
	var tok uint8
	probed := m.entryProbed
	if probed {
		tok = vm.probes.Enter(m.methodID)
	}
	err := vm.exec(m, m.body)
	if probed {
		vm.probes.Exit(m.methodID, tok)
	}
	vm.obs.returns.Inc()
	if vm.obs.tracer != nil {
		vm.obs.tracer.Record(obs.EvReturn, uint64(len(vm.stack)), vm.Steps)
	}
	vm.stack = vm.stack[:len(vm.stack)-1]
	return err
}

// exec runs a body slice within method m's activation.
func (vm *VM) exec(m *loadedMethod, body []Instr) error {
	for i := range body {
		in := &body[i]
		vm.Steps++
		switch in.Op {
		case OpCall:
			if in.Depth > 0 && len(vm.stack) >= in.Depth {
				continue // bounded call: recursion base case reached
			}
			cs := &m.sites[in.Site]
			if cs.target == nil {
				cs.target = vm.methods[MethodRef{Class: in.Class, Method: in.Name}]
				if cs.target == nil {
					return fmt.Errorf("minivm: %s: call to unloaded method %s.%s", m.ref, in.Class, in.Name)
				}
			}
			if err := vm.call(m, cs.id, cs.target); err != nil {
				return err
			}
		case OpVCall:
			if in.Depth > 0 && len(vm.stack) >= in.Depth {
				continue // bounded call: recursion base case reached
			}
			cs := &m.sites[in.Site]
			if cs.set == nil {
				cs.set = vm.dispatchSet(in.Class, in.Name)
			}
			target := vm.dispatch(cs.set)
			if target == nil {
				return fmt.Errorf("minivm: %s: vcall %s.%s has no loaded implementation", m.ref, in.Class, in.Name)
			}
			if err := vm.call(m, cs.id, target); err != nil {
				return err
			}
		case OpLoop:
			for k := 0; k < in.N; k++ {
				if err := vm.exec(m, in.Body); err != nil {
					return err
				}
			}
		case OpEmit:
			vm.obs.emits.Inc()
			if vm.obs.tracer != nil {
				vm.obs.tracer.Record(obs.EvEmit, uint64(len(vm.stack)), vm.Steps)
			}
			if vm.OnEmit != nil {
				vm.OnEmit(vm, m.ref, in.Tag)
			}
		case OpLoadClass:
			if !vm.loaded[in.Class] {
				if err := vm.load(in.Class); err != nil {
					return err
				}
				vm.Loads++
			}
		case OpWork:
			vm.work(in.N)
			vm.Steps += uint64(in.N)
		case OpSpawn:
			vm.tasks = append(vm.tasks, MethodRef{Class: in.Class, Method: in.Name})
		case OpThrow:
			if in.Depth > 0 && len(vm.stack) < in.Depth {
				continue // condition not met: no throw
			}
			return &Exception{Tag: in.Tag}
		case OpTry:
			if err := vm.exec(m, in.Body); err != nil {
				if _, ok := AsException(err); !ok {
					return err // genuine runtime error: not catchable
				}
				if herr := vm.exec(m, in.Handler); herr != nil {
					return herr
				}
			}
		}
	}
	return nil
}

// call performs one invocation through the call site with probe id sid,
// with its surrounding probes. Probes only fire for call sites in
// statically loaded (analysed, hence instrumented) methods; call sites
// inside dynamically loaded code carry no payload.
func (vm *VM) call(caller *loadedMethod, sid int32, target *loadedMethod) error {
	if !caller.callProbed || sid == siteSkip {
		return vm.invoke(target) // no payload inserted here
	}
	tok := vm.probes.BeforeCall(sid, target.methodID)
	err := vm.invoke(target)
	vm.probes.AfterCall(sid, target.methodID, tok)
	return err
}

// dispatch picks the dynamic target of a virtual call among the loaded
// candidates of its dispatch set, uniformly pseudo-randomly, or nil when
// the set is empty.
func (vm *VM) dispatch(ds *dispatchSet) *loadedMethod {
	switch len(ds.cands) {
	case 0:
		return nil
	case 1:
		return ds.cands[0]
	}
	return ds.cands[vm.nextRand()%uint64(len(ds.cands))]
}

// work burns n units of computation (integer mixing) that the compiler
// cannot remove, simulating application work between calls.
func (vm *VM) work(n int) {
	x := vm.sink ^ 0x2545f4914f6cdd1d
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	vm.sink = x
}

// Sink returns the accumulated work value; benchmarks read it so the work
// loops cannot be optimized away.
func (vm *VM) Sink() uint64 { return vm.sink }

// DispatchTargets returns the currently loaded dispatch candidates for a
// virtual call on Class.Method, in load order. Used by tests.
func (vm *VM) DispatchTargets(class, method string) []MethodRef {
	ds := vm.dtables[dispatchKey{Class: class, Method: method}]
	if ds == nil {
		return []MethodRef{}
	}
	out := make([]MethodRef, len(ds.cands))
	for i, c := range ds.cands {
		out[i] = c.ref
	}
	return out
}
