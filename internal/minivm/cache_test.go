package minivm

import (
	"slices"
	"testing"
)

// Tests for the per-VM caches the interpreter resolves once instead of per
// event: each loaded method's probe bits, each static site's target and
// each virtual site's dispatch set. Each test fails against a cache that
// is stale (not refreshed or not shared) or missing.

// firingProbes records, by name, which entries and call sites fire.
// Every resolution hands out a fresh id, so ids are valid only against the
// resolution that produced them, like a plan's.
type firingProbes struct {
	methods []MethodRef
	sites   []SiteRef
	fired   []string
}

func (p *firingProbes) ResolveMethod(m MethodRef) int32 {
	p.methods = append(p.methods, m)
	return int32(len(p.methods) - 1)
}

func (p *firingProbes) ResolveSite(s SiteRef) int32 {
	p.sites = append(p.sites, s)
	return int32(len(p.sites) - 1)
}

func (p *firingProbes) BeforeCall(site, _ int32) uint8 {
	p.fired = append(p.fired, "call "+p.sites[site].String())
	return 0
}

func (p *firingProbes) AfterCall(_, _ int32, _ uint8) {}

func (p *firingProbes) Enter(m int32) uint8 {
	p.fired = append(p.fired, "enter "+p.methods[m].String())
	return 0
}

func (p *firingProbes) Exit(_ int32, _ uint8) {}

// probeBitsProgram is the program the probe-bit tests run:
//
//	A.main: call A.leaf; load Dyn; call Dyn.op; emit mid; call A.leaf; call Dyn.op
//	A.leaf: work 1
//	Dyn.op (dynamic): call A.leaf
//
// The "mid" emit is where a test changes a setting: A.leaf and Dyn.op are
// loaded by then, and each has one call still to run.
func probeBitsProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{
					Call("A", "leaf"),
					LoadClass("Dyn"),
					Call("Dyn", "op"),
					Emit("mid"),
					Call("A", "leaf"),
					Call("Dyn", "op"),
				}},
				{Name: "leaf", Body: []Instr{Work(1)}},
			}},
		},
		Dynamic: []*Class{
			{Name: "Dyn", Methods: []*Method{
				{Name: "op", Body: []Instr{Call("A", "leaf")}},
			}},
		},
		Entry: MethodRef{Class: "A", Method: "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// runProbeBits runs probeBitsProgram with p installed, calls setup right
// after SetProbes and atMid at the "mid" emit, and returns what fired.
func runProbeBits(t *testing.T, p *firingProbes, setup, atMid func(vm *VM)) []string {
	t.Helper()
	vm, err := NewVM(probeBitsProgram(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(p)
	if setup != nil {
		setup(vm)
	}
	vm.OnEmit = func(vm *VM, _ MethodRef, tag string) {
		if tag == "mid" && atMid != nil {
			atMid(vm)
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return p.fired
}

func assertFired(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("fired\n  %q\nwant\n  %q", got, want)
	}
}

// TestSetInstrumentedAfterSetProbes: restricting instrumentation after the
// probes resolved leaves only the listed method's entry and sites firing.
func TestSetInstrumentedAfterSetProbes(t *testing.T) {
	p := &firingProbes{}
	got := runProbeBits(t, p, func(vm *VM) {
		vm.SetInstrumented(map[MethodRef]bool{{Class: "A", Method: "main"}: true})
	}, nil)
	assertFired(t, got, []string{
		"enter A.main", "call A.main@0", "call A.main@1", "call A.main@2", "call A.main@3",
	})
}

// TestSetProbeDynamicMidRun: switching dynamic entry probes on while the
// dynamic class is loaded makes its next entry fire, but never its sites.
func TestSetProbeDynamicMidRun(t *testing.T) {
	p := &firingProbes{}
	got := runProbeBits(t, p, nil, func(vm *VM) { vm.SetProbeDynamic(true) })
	assertFired(t, got, []string{
		"enter A.main",
		"call A.main@0", "enter A.leaf",
		"call A.main@1", "enter A.leaf", // Dyn.op: neither its entry nor its site fires
		"call A.main@2", "enter A.leaf",
		"call A.main@3", "enter Dyn.op", "enter A.leaf",
	})
}

// TestMarkAnalyzedMidRun: absorbing the loaded dynamic class makes its
// next activation fire its entry and its call site.
func TestMarkAnalyzedMidRun(t *testing.T) {
	p := &firingProbes{}
	got := runProbeBits(t, p, nil, func(vm *VM) { vm.MarkAnalyzed("Dyn") })
	assertFired(t, got, []string{
		"enter A.main",
		"call A.main@0", "enter A.leaf",
		"call A.main@1", "enter A.leaf",
		"call A.main@2", "enter A.leaf",
		"call A.main@3", "enter Dyn.op", "call Dyn.op@0", "enter A.leaf",
	})
}

// TestPlanSwapMidRun swaps plans the way Session.Adopt does — new probes,
// a wider instrumented set, the dynamic class absorbed — and checks that
// everything after the swap fires on the new probes, per the new set.
func TestPlanSwapMidRun(t *testing.T) {
	old, next := &firingProbes{}, &firingProbes{}
	main := MethodRef{Class: "A", Method: "main"}
	leaf := MethodRef{Class: "A", Method: "leaf"}
	op := MethodRef{Class: "Dyn", Method: "op"}
	gotOld := runProbeBits(t, old, func(vm *VM) {
		vm.SetInstrumented(map[MethodRef]bool{main: true})
	}, func(vm *VM) {
		vm.SetProbes(next)
		vm.SetInstrumented(map[MethodRef]bool{main: true, leaf: true, op: true})
		vm.MarkAnalyzed("Dyn")
	})
	assertFired(t, gotOld, []string{"enter A.main", "call A.main@0", "call A.main@1"})
	assertFired(t, next.fired, []string{
		"call A.main@2", "enter A.leaf",
		"call A.main@3", "enter Dyn.op", "call Dyn.op@0", "enter A.leaf",
	})
}

// dispatchProgram: A.site holds one vcall Base.m; main runs it once, loads
// the dynamic Sub (which overrides m), then runs it 64 more times. Each m
// emits its class name.
func dispatchProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{
					Call("A", "site"),
					Emit("loaded"),
					LoadClass("Sub"),
					Loop(64, Call("A", "site")),
				}},
				{Name: "site", Body: []Instr{VCall("Base", "m")}},
			}},
			{Name: "Base", Methods: []*Method{{Name: "m", Body: []Instr{Emit("Base")}}}},
		},
		Dynamic: []*Class{
			{Name: "Sub", Super: "Base", Methods: []*Method{{Name: "m", Body: []Instr{Emit("Sub")}}}},
		},
		Entry: MethodRef{Class: "A", Method: "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// runDispatch runs prog and counts the emits of each tag.
func runDispatch(t *testing.T, prog *Program, seed uint64) map[string]int {
	t.Helper()
	vm, err := NewVM(prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]int{}
	vm.OnEmit = func(_ *VM, _ MethodRef, tag string) { tags[tag]++ }
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return tags
}

// TestLoadJoinsCachedDispatchSet: a class loaded after a virtual site
// first dispatched joins that site's candidates within the same run.
func TestLoadJoinsCachedDispatchSet(t *testing.T) {
	tags := runDispatch(t, dispatchProgram(t), 1)
	if tags["Base"]+tags["Sub"] != 65 {
		t.Fatalf("dispatched %v, want 65 calls", tags)
	}
	if tags["Sub"] == 0 {
		t.Fatalf("64 dispatches after loading Sub never reached it: %v", tags)
	}
}

// TestDispatchCachesArePerVM: a VM that loaded Sub does not leak it into
// the dispatch sets of another VM over the same Program, as RunParallel
// runs them: the second VM's first dispatch, before its own load, can only
// reach Base.
func TestDispatchCachesArePerVM(t *testing.T) {
	prog := dispatchProgram(t)
	runDispatch(t, prog, 1)
	for seed := uint64(0); seed < 8; seed++ {
		vm, err := NewVM(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		var first []string
		loaded := false
		vm.OnEmit = func(_ *VM, _ MethodRef, tag string) {
			if !loaded {
				first = append(first, tag)
				loaded = tag == "loaded"
			}
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first, []string{"Base", "loaded"}) {
			t.Fatalf("seed %d: emits before the load %q, want [Base loaded]", seed, first)
		}
	}
}

// TestStaticCallResolvesAfterLoad: a static call whose target class loads
// after the calling method was linked resolves once the loadclass ran, and
// keeps resolving to it.
func TestStaticCallResolvesAfterLoad(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{LoadClass("Dyn"), Loop(3, Call("Dyn", "op"))}},
			}},
		},
		Dynamic: []*Class{
			{Name: "Dyn", Methods: []*Method{{Name: "op", Body: []Instr{Emit("op")}}}},
		},
		Entry: MethodRef{Class: "A", Method: "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	var at []string
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.OnEmit = func(_ *VM, m MethodRef, _ string) { at = append(at, m.String()) }
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(at, []string{"Dyn.op", "Dyn.op", "Dyn.op"}) {
		t.Fatalf("emits at %v, want Dyn.op three times", at)
	}
}

// TestFrameIDIsResolvedID: FrameID reports the id the probes resolved for
// each active frame, and -1 without probes.
func TestFrameIDIsResolvedID(t *testing.T) {
	prog := probeBitsProgram(t)
	for _, probed := range []bool{false, true} {
		vm, err := NewVM(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &firingProbes{}
		if probed {
			vm.SetProbes(p)
		}
		checked := false
		vm.OnEmit = func(vm *VM, m MethodRef, _ string) {
			id := vm.FrameID(vm.Depth() - 1)
			switch {
			case !probed && id != -1:
				t.Errorf("FrameID = %d without probes, want -1", id)
			case probed && (id < 0 || p.methods[id] != m):
				t.Errorf("FrameID = %d at %s, resolved as %v", id, m, p.methods)
			}
			checked = true
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		if !checked {
			t.Fatal("no emit reached the callback")
		}
	}
}
