package instrument

import (
	"strings"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
	"deltapath/internal/pcce"
)

// harness wires a program through analysis, instrumentation, execution and
// decoding, and checks at every emit point that the decoded context (gaps
// removed) equals the ground-truth stack filtered to instrumented methods,
// and that each encoding key maps to exactly one such context.
type harness struct {
	t       *testing.T
	prog    *minivm.Program
	build   *cha.Result
	plan    *Plan
	enc     *Encoder
	dec     *encoding.CompiledDecoder
	vm      *minivm.VM
	keyCtx  map[string]string
	emits   int
	decoded [][]string
}

type harnessOpts struct {
	setting cha.Setting
	cptOn   bool
	maxID   uint64
	seed    uint64
	perEdge bool // use the PCCE algorithm instead of DeltaPath
}

func newHarness(t *testing.T, src string, o harnessOpts) *harness {
	t.Helper()
	prog := lang.MustParse(src)
	build, err := cha.Build(prog, cha.Options{Setting: o.setting})
	if err != nil {
		t.Fatal(err)
	}
	var spec *encoding.Spec
	if o.perEdge {
		res, err := pcce.Encode(build.Graph, pcce.Options{MaxID: o.maxID})
		if err != nil {
			t.Fatal(err)
		}
		spec = res.Spec
	} else {
		res, err := core.Encode(build.Graph, core.Options{MaxID: o.maxID})
		if err != nil {
			t.Fatal(err)
		}
		spec = res.Spec
	}
	var cptPlan *cpt.Plan
	if o.cptOn {
		cptPlan = cpt.Compute(build.Graph)
	}
	plan, err := NewPlan(build, spec, cptPlan)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(plan)
	vm, err := minivm.NewVM(prog, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	h := &harness{
		t: t, prog: prog, build: build, plan: plan, enc: enc,
		dec: encoding.Compile(spec), vm: vm,
		keyCtx: make(map[string]string),
	}
	vm.OnEmit = h.onEmit
	return h
}

func (h *harness) onEmit(vm *minivm.VM, m minivm.MethodRef, _ string) {
	h.emits++
	node, known := h.build.NodeOf[m]
	if !known {
		return // emit inside unanalysed code: encoding does not apply
	}
	st := h.enc.State().Snapshot()
	key := st.Key(node)

	// Ground truth: the VM stack filtered to instrumented methods.
	var truth []string
	for _, f := range vm.Stack() {
		if _, ok := h.build.NodeOf[f]; ok {
			truth = append(truth, f.String())
		}
	}
	truthStr := strings.Join(truth, ">")

	if prev, dup := h.keyCtx[key]; dup {
		if prev != truthStr {
			h.t.Fatalf("encoding key %q decodes ambiguously:\n  %s\n  %s", key, prev, truthStr)
		}
	} else {
		h.keyCtx[key] = truthStr
	}

	names, err := h.dec.DecodeNames(st, node)
	if err != nil {
		h.t.Fatalf("decode at %s (truth %s): %v", m, truthStr, err)
	}
	h.decoded = append(h.decoded, names)
	var got []string
	for _, n := range names {
		if n != "..." {
			got = append(got, n)
		}
	}
	if gotStr := strings.Join(got, ">"); gotStr != truthStr {
		h.t.Fatalf("decoded context mismatch at %s:\n  got  %s (full: %v)\n  want %s",
			m, gotStr, names, truthStr)
	}
}

func (h *harness) run() {
	h.t.Helper()
	if err := h.vm.Run(); err != nil {
		h.t.Fatal(err)
	}
	if h.emits == 0 {
		h.t.Fatal("program produced no emits; test is vacuous")
	}
	if d := h.enc.State().Depth(); d != 1 || h.enc.State().ID != 0 {
		h.t.Fatalf("encoder state unbalanced after run: depth %d id %d", d, h.enc.State().ID)
	}
}

const virtualProgram = `
entry Main.main
class Main {
  method main {
    loop 4 {
      call Main.work
      vcall Shape.area
    }
    emit top
  }
  method work {
    vcall Shape.area
    emit w
  }
}
class Shape { method area { emit s } }
class Circle extends Shape { method area { call Shape.area; emit c } }
class Square extends Shape { method area { emit q } }
`

func TestVirtualDispatchRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		h := newHarness(t, virtualProgram, harnessOpts{seed: seed})
		h.run()
	}
}

func TestVirtualDispatchWithCPTNoHazards(t *testing.T) {
	// Without dynamic loading or exclusion, call path tracking must stay
	// silent: every entry matches its expectation.
	h := newHarness(t, virtualProgram, harnessOpts{cptOn: true, seed: 3})
	h.run()
	if h.enc.Hazards != 0 {
		t.Fatalf("hazards = %d on a fully analysed program", h.enc.Hazards)
	}
}

func TestPCCEPerEdgeSwitchRoundTrip(t *testing.T) {
	// The PCCE baseline on the same program needs its per-target switch
	// but must be equally precise.
	h := newHarness(t, virtualProgram, harnessOpts{perEdge: true, seed: 5})
	h.run()
}

const recursiveProgram = `
entry Main.main
class Main {
  method main {
    call Main.rec
    emit top
  }
  method rec {
    emit in
    vcall Main.rec     # self-recursive virtual call
    emit out
  }
}
class Sub extends Main { method rec { emit sub } }
`

func TestRecursionRoundTrip(t *testing.T) {
	// Bound the recursion via MaxDepth: the VM errors out, which is fine —
	// we only check encodings at emits reached before that.
	prog := lang.MustParse(recursiveProgram)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(build, res.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 6; seed++ {
		enc := NewEncoder(plan)
		vm, err := minivm.NewVM(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		vm.MaxDepth = 20
		vm.SetProbes(enc)
		vm.SetInstrumented(plan.InstrumentedMethods())
		dec := encoding.Compile(res.Spec)
		checked := 0
		vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
			node := build.NodeOf[m]
			st := enc.State().Snapshot()
			names, err := dec.DecodeNames(st, node)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var truth []string
			for _, f := range v.Stack() {
				truth = append(truth, f.String())
			}
			if strings.Join(names, ">") != strings.Join(truth, ">") {
				t.Fatalf("recursion decode mismatch:\n  got  %v\n  want %v", names, truth)
			}
			checked++
		}
		err = vm.Run()
		if err != nil && !strings.Contains(err.Error(), "depth") {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatal("no emits checked")
		}
	}
}

// figure6Program realizes Figure 6: B's virtual call statically dispatches
// to D; the dynamically loaded X joins the dispatch set at runtime, and X
// calls E (hazardous) and D (benign).
const figure6Program = `
entry A.main
class A {
  method main {
    load X
    call C.go
    loop 8 { call B.go }
    emit top
  }
}
class B {
  method go { vcall D.impl; emit b }
}
class C {
  method go { call E.run; call D.impl }
}
class D {
  method impl { emit d }
}
class E {
  method run { emit e }
}
dynamic class X extends D {
  method impl { call E.run; call D.impl; emit x }
}
`

func TestFigure6DynamicLoading(t *testing.T) {
	h := newHarness(t, figure6Program, harnessOpts{cptOn: true, seed: 1})
	h.run()
	if h.enc.Hazards == 0 {
		t.Fatal("no hazardous UCPs detected despite dynamic class loading")
	}
	// At least one decoded context must contain a gap (the hazardous
	// B -> X -> E path).
	sawGap := false
	for _, names := range h.decoded {
		for _, n := range names {
			if n == "..." {
				sawGap = true
			}
		}
	}
	if !sawGap {
		t.Fatal("no decoded context shows a gap")
	}
}

func TestFigure6WithoutCPTWouldCorrupt(t *testing.T) {
	// Without call path tracking, dynamic loading corrupts encodings: the
	// decoded context differs from the truth for at least one emit. This
	// is the failure mode Section 4.1 exists to prevent; the test
	// documents that our substrate actually exhibits it.
	prog := lang.MustParse(figure6Program)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(build, res.Spec, nil) // no CPT
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(plan)
	vm, err := minivm.NewVM(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	dec := encoding.Compile(res.Spec)
	mismatch := false
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := build.NodeOf[m]
		if !known {
			return
		}
		st := enc.State().Snapshot()
		names, err := dec.DecodeNames(st, node)
		if err != nil {
			mismatch = true // undecodable is also corruption
			return
		}
		var truth []string
		for _, f := range v.Stack() {
			if _, ok := build.NodeOf[f]; ok {
				truth = append(truth, f.String())
			}
		}
		if strings.Join(names, ">") != strings.Join(truth, ">") {
			mismatch = true
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !mismatch {
		t.Fatal("expected at least one corrupted context without CPT")
	}
}

// figure7Program realizes Figure 7: the app method B calls into library
// code (D, F) which calls back into the app method G; under
// encoding-application the library is excluded and G's entry detects the
// UCP, recovering the app-only context A B ... G.
const figure7Program = `
entry A.main
class A {
  method main {
    call B.go
    emit top
  }
}
class B {
  method go { call D.lib; emit b }
}
library class D {
  method lib { call F.lib }
}
library class F {
  method lib { call G.cb }
}
class G {
  method cb { emit g }
}
`

func TestFigure7SelectiveEncoding(t *testing.T) {
	h := newHarness(t, figure7Program, harnessOpts{
		setting: cha.EncodingApplication, cptOn: true, seed: 2,
	})
	h.run()
	if h.enc.Hazards == 0 {
		t.Fatal("library call-back not detected as hazardous UCP")
	}
	// The emit inside G must decode to A.main > B.go > ... > G.cb.
	found := false
	for _, names := range h.decoded {
		if strings.Join(names, ">") == "A.main>B.go>...>G.cb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected decoded context A.main>B.go>...>G.cb; got %v", h.decoded)
	}
}

func TestSmallWidthAnchorsEndToEnd(t *testing.T) {
	// Force anchor nodes with a small width and verify encodings remain
	// exact across a run that traverses anchors repeatedly.
	src := `
entry M.main
class M {
  method main { loop 6 { call M.a; call M.b } emit top }
  method a { call M.c; call M.d }
  method b { call M.c; call M.d }
  method c { call M.e; emit c }
  method d { call M.e; call M.e; emit d }
  method e { emit e }
}
`
	h := newHarness(t, src, harnessOpts{maxID: 3, seed: 0})
	h.run()
	if len(h.plan.Spec.Anchors) == 0 {
		t.Fatal("expected anchors at width 3")
	}
	if h.enc.MaxID > 3 {
		t.Fatalf("runtime ID %d exceeded MaxID 3", h.enc.MaxID)
	}
}

func TestEncoderResetReproducible(t *testing.T) {
	prog := lang.MustParse(virtualProgram)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(plan)
	run := func() uint64 {
		vm, err := minivm.NewVM(prog, 9)
		if err != nil {
			t.Fatal(err)
		}
		vm.SetProbes(enc)
		vm.SetInstrumented(plan.InstrumentedMethods())
		var last uint64
		vm.OnEmit = func(*minivm.VM, minivm.MethodRef, string) { last = enc.State().ID }
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	a := run()
	enc.Reset()
	b := run()
	if a != b {
		t.Fatalf("reset not reproducible: %d vs %d", a, b)
	}
}

func TestPlanRejectsForeignSpec(t *testing.T) {
	progA := lang.MustParse(virtualProgram)
	buildA, _ := cha.Build(progA, cha.Options{})
	buildB, _ := cha.Build(progA, cha.Options{})
	res, err := core.Encode(buildA.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(buildB, res.Spec, nil); err == nil {
		t.Fatal("plan accepted a spec computed over a different graph")
	}
}

// TestExceptionsKeepEncodingBalanced: exceptions unwind through
// instrumented frames; the try/finally-style probe discipline must keep the
// encoding exact, including at emits inside catch handlers.
func TestExceptionsKeepEncodingBalanced(t *testing.T) {
	src := `
entry A.main
class A {
  method main {
    loop 4 {
      try { call A.work } catch { call A.recover; emit handled }
    }
    emit end
  }
  method work { call B.step; vcall C.go; emit worked }
  method recover { emit recovering }
}
class B {
  method step { rthrow 3 blew; emit stepped }
}
class C { method go { emit c } }
class C2 extends C { method go { throw always; emit nope } }
`
	for seed := uint64(0); seed < 6; seed++ {
		h := newHarness(t, src, harnessOpts{seed: seed, cptOn: seed%2 == 0})
		h.run()
	}
}

// TestNewPlanRefusesSiteTables: a SiteAV or CPT expectation table whose
// length is not the graph's site count is refused, not indexed.
func TestNewPlanRefusesSiteTables(t *testing.T) {
	build, err := cha.Build(lang.MustParse(figure6Program), cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := *res.Spec
	spec.SiteAV = spec.SiteAV[1:]
	if _, err := NewPlan(build, &spec, nil); err == nil || !strings.Contains(err.Error(), "SiteAV has") {
		t.Errorf("short SiteAV: NewPlan = %v", err)
	}
	plan := cpt.Compute(build.Graph)
	plan.Expected = append(plan.Expected, 0)
	if _, err := NewPlan(build, res.Spec, plan); err == nil || !strings.Contains(err.Error(), "CPT expectations cover") {
		t.Errorf("long CPT table: NewPlan = %v", err)
	}
}
