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

const profileSrc = `
entry A.main
class A {
  method main {
    loop 50 { call A.hot }
    call A.cold
    emit top
  }
  method hot  { call A.leaf }
  method cold { call A.leaf }
  method leaf { emit leaf }
}
`

func TestProfileCountsEdges(t *testing.T) {
	prog := lang.MustParse(profileSrc)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Profile(prog, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := build.NodeOf[minivm.MethodRef{Class: "A", Method: "hot"}]
	cold := build.NodeOf[minivm.MethodRef{Class: "A", Method: "cold"}]
	leaf := build.NodeOf[minivm.MethodRef{Class: "A", Method: "leaf"}]
	var hotN, coldN uint64
	for e, c := range counts {
		if e.Callee == leaf && e.Caller == hot {
			hotN = c
		}
		if e.Callee == leaf && e.Caller == cold {
			coldN = c
		}
	}
	if hotN != 50 || coldN != 1 {
		t.Fatalf("edge counts hot=%d cold=%d, want 50/1", hotN, coldN)
	}
}

// TestProfileGuidedFreeSites: with the profile, the hot edge gets addition
// value 0, making its site encoding-free; without it, declaration order
// decides. Correctness must hold either way.
func TestProfileGuidedFreeSites(t *testing.T) {
	prog := lang.MustParse(profileSrc)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Profile(prog, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{EdgeProfile: counts})
	if err != nil {
		t.Fatal(err)
	}
	// The hot edge A.hot -> A.leaf must carry addition value 0 ...
	hot := build.NodeOf[minivm.MethodRef{Class: "A", Method: "hot"}]
	leaf := build.NodeOf[minivm.MethodRef{Class: "A", Method: "leaf"}]
	var hotAV, coldAV uint64
	cold := build.NodeOf[minivm.MethodRef{Class: "A", Method: "cold"}]
	for _, e := range build.Graph.In(leaf) {
		switch e.Caller {
		case hot:
			hotAV = res.Spec.AV(e)
		case cold:
			coldAV = res.Spec.AV(e)
		}
	}
	if hotAV != 0 || coldAV == 0 {
		t.Fatalf("profile-guided AVs: hot=%d cold=%d, want hot free", hotAV, coldAV)
	}

	// ... and its site drops out of the active set (no CPT).
	plan, err := NewPlan(build, res.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumFreeSites() == 0 {
		t.Fatal("no encoding-free sites despite zero addition values")
	}

	// Run with free sites uninstrumented: decoding stays exact.
	enc := NewEncoder(plan)
	vm, err := minivm.NewVM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	vm.SetInstrumentedSites(plan.ActiveSites())
	dec := encoding.Compile(res.Spec)
	checked := 0
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node := build.NodeOf[m]
		names, err := dec.DecodeNames(enc.State().Snapshot(), node)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var truth []string
		for _, f := range v.Stack() {
			truth = append(truth, f.String())
		}
		if strings.Join(names, ">") != strings.Join(truth, ">") {
			t.Fatalf("free-site decode mismatch: %v vs %v", names, truth)
		}
		checked++
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no emits checked")
	}
}

// TestActiveSitesWithCPT: call path tracking needs the expectation save at
// every site, so nothing is free.
func TestActiveSitesWithCPT(t *testing.T) {
	prog := lang.MustParse(profileSrc)
	build, _ := cha.Build(prog, cha.Options{})
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planCPT, err := NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		t.Fatal(err)
	}
	if planCPT.NumFreeSites() != 0 {
		t.Fatalf("CPT plan reports %d free sites, want 0", planCPT.NumFreeSites())
	}
}
