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
)

// runDepth runs a program under the depth-tracking encoder with decode
// verification at every emit in analysed code.
func runDepth(t *testing.T, src string, seed uint64) *DepthEncoder {
	t.Helper()
	prog := lang.MustParse(src)
	build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
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
	enc := NewDepthEncoder(plan)
	vm, err := minivm.NewVM(prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	vm.SetProbeDynamic(true) // the scheme's requirement
	dec := encoding.Compile(res.Spec)
	checked := 0
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := build.NodeOf[m]
		if !known {
			return
		}
		st := enc.State().Snapshot()
		names, err := dec.DecodeNames(st, node)
		if err != nil {
			t.Fatalf("decode at %s: %v", m, err)
		}
		var truth []string
		for _, f := range v.Stack() {
			if _, ok := build.NodeOf[f]; ok {
				truth = append(truth, f.String())
			}
		}
		var got []string
		for _, n := range names {
			if n != "..." {
				got = append(got, n)
			}
		}
		if strings.Join(got, ">") != strings.Join(truth, ">") {
			t.Fatalf("depth-tracking decode mismatch at %s:\n got  %v\n want %v", m, names, truth)
		}
		checked++
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no contexts verified")
	}
	if d := enc.State().Depth(); d != 1 {
		t.Fatalf("stack unbalanced after run: depth %d", d)
	}
	if enc.depth != 0 {
		t.Fatalf("dynamic depth counter unbalanced: %d", enc.depth)
	}
	return enc
}

const depthProgram = `
entry A.main
class A {
  method main {
    load X
    loop 6 { vcall D.impl }
    call E.run
    emit top
  }
}
class D { method impl { emit d } }
class E { method run { emit e } }
dynamic class X extends D {
  method impl { call E.run; call D.impl; emit x }
}
`

func TestDepthTrackingRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		runDepth(t, depthProgram, seed)
	}
}

func TestDepthTrackingDetectsAllUCPs(t *testing.T) {
	enc := runDepth(t, depthProgram, 1)
	if enc.Hazards == 0 {
		t.Fatal("no UCPs detected despite dynamic dispatch")
	}
}

// TestDepthTrackingStricterThanCPT: depth tracking has no benign case, so
// it pushes at least as often as call path tracking on the same trace.
func TestDepthTrackingStricterThanCPT(t *testing.T) {
	prog := lang.MustParse(depthProgram)
	build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planCPT, err := NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		t.Fatal(err)
	}
	cptEnc := NewEncoder(planCPT)
	vm, err := minivm.NewVM(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(cptEnc)
	vm.SetInstrumented(planCPT.InstrumentedMethods())
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}

	depthEnc := runDepth(t, depthProgram, 1)
	if depthEnc.Hazards < cptEnc.Hazards {
		t.Fatalf("depth tracking pushed %d times, CPT %d — depth tracking cannot push less",
			depthEnc.Hazards, cptEnc.Hazards)
	}
	t.Logf("pushes: depth tracking %d, call path tracking %d", depthEnc.Hazards, cptEnc.Hazards)
}

// TestDepthTrackingSelectiveEncoding: under the encoding-application
// setting the excluded library must carry depth counters (unlike call path
// tracking, which leaves it untouched) — and with them, decoding stays
// exact across library gaps.
func TestDepthTrackingSelectiveEncoding(t *testing.T) {
	src := `
entry A.main
class A { method main { loop 3 { call B.go } emit top } }
class B { method go { call L.lib; emit b } }
library class L { method lib { call C.cb } }
class C { method cb { emit c } }
`
	prog := lang.MustParse(src)
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
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
	enc := NewDepthEncoder(plan)
	vm, err := minivm.NewVM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(nil) // library entries/exits must count depth
	vm.SetProbeDynamic(true)
	dec := encoding.Compile(res.Spec)
	sawGap := false
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := build.NodeOf[m]
		if !known {
			return
		}
		names, err := dec.DecodeNames(enc.State().Snapshot(), node)
		if err != nil {
			t.Fatalf("decode at %s: %v", m, err)
		}
		var truth []string
		for _, f := range v.Stack() {
			if _, ok := build.NodeOf[f]; ok {
				truth = append(truth, f.String())
			}
		}
		var got []string
		for _, n := range names {
			if n == "..." {
				sawGap = true
				continue
			}
			got = append(got, n)
		}
		if strings.Join(got, ">") != strings.Join(truth, ">") {
			t.Fatalf("mismatch at %s: got %v want %v", m, names, truth)
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawGap {
		t.Fatal("library gap never appeared in decoded contexts")
	}
	if enc.Hazards == 0 {
		t.Fatal("library call-back not detected")
	}
}
