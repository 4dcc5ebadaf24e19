package pcc

import (
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
)

const src = `
entry Main.main
class Main {
  method main {
    call A.f
    call A.g
    emit top
  }
}
class A {
  method f { emit f }
  method g { call A.f; emit g }
}
`

func TestPCCDistinguishesContexts(t *testing.T) {
	prog := lang.MustParse(src)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc := New(build)
	vm, err := minivm.NewVM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	values := make(map[string]uint64)
	vm.OnEmit = func(_ *minivm.VM, m minivm.MethodRef, tag string) {
		values[tag] = enc.Value()
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	// main>A.f and main>A.g>A.f both end in A.f but must hash differently.
	fDirect := values["f"]
	if values["g"] == fDirect {
		t.Fatal("distinct contexts share PCC value")
	}
	// After the run, V is restored to the empty-context value 0.
	if enc.Value() != 0 {
		t.Fatalf("V = %d after balanced run, want 0", enc.Value())
	}
}

func TestPCCDeterministic(t *testing.T) {
	prog := lang.MustParse(src)
	build, _ := cha.Build(prog, cha.Options{})
	run := func() uint64 {
		enc := New(build)
		vm, _ := minivm.NewVM(prog, 0)
		vm.SetProbes(enc)
		var last uint64
		vm.OnEmit = func(_ *minivm.VM, _ minivm.MethodRef, _ string) { last = enc.Value() }
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if run() != run() {
		t.Fatal("PCC values not deterministic")
	}
}

func TestPCC32Bit(t *testing.T) {
	prog := lang.MustParse(src)
	build, _ := cha.Build(prog, cha.Options{})
	enc := New(build)
	for _, cs := range enc.cs {
		if cs > 0xffffffff {
			t.Fatalf("site constant %d exceeds 32 bits", cs)
		}
	}
}

func TestPCCReset(t *testing.T) {
	prog := lang.MustParse(src)
	build, _ := cha.Build(prog, cha.Options{})
	enc := New(build)
	enc.v = 42
	enc.saved = append(enc.saved, 7)
	enc.Reset()
	if enc.Value() != 0 || len(enc.saved) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestSiteConstantStable(t *testing.T) {
	a := SiteConstant(minivm.SiteRef{In: minivm.MethodRef{Class: "A", Method: "f"}, Site: 3})
	b := SiteConstant(minivm.SiteRef{In: minivm.MethodRef{Class: "A", Method: "f"}, Site: 3})
	c := SiteConstant(minivm.SiteRef{In: minivm.MethodRef{Class: "A", Method: "f"}, Site: 4})
	if a != b {
		t.Fatal("site constant not stable")
	}
	if a == c {
		t.Fatal("different sites share a constant")
	}
}
