package stackwalk_test

// External test package: the replay test needs internal/instrument (which
// imports stackwalk), so an in-package test would be an import cycle.

import (
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
	"deltapath/internal/stackwalk"
)

// TestReencodeMatchesGroundTruth runs instrumented programs and, at every
// emit point, re-derives an encoding.State from the walked stack and checks
// that it decodes (gaps removed) to exactly the walked stack — the property
// the resync path of graceful degradation rests on: a reencoded state is
// always a valid substitute for the incrementally maintained one.
func TestReencodeMatchesGroundTruth(t *testing.T) {
	programs := []struct {
		name    string
		src     string
		setting cha.Setting
		maxID   uint64
		seeds   int
	}{
		{name: "virtual", src: `
entry Main.main
class Main {
  method main { loop 4 { call Main.work; vcall Shape.area } emit top }
  method work { vcall Shape.area; emit w }
}
class Shape { method area { emit s } }
class Circle extends Shape { method area { call Shape.area; emit c } }
class Square extends Shape { method area { emit q } }
`, seeds: 6},
		{name: "anchors", src: `
entry M.main
class M {
  method main { loop 6 { call M.a; call M.b } emit top }
  method a { call M.c; call M.d }
  method b { call M.c; call M.d }
  method c { call M.e; emit c }
  method d { call M.e; call M.e; emit d }
  method e { emit e }
}
`, maxID: 3, seeds: 2},
		{name: "dynload", src: `
entry A.main
class A { method main { load X; call C.go; loop 8 { call B.go } emit top } }
class B { method go { vcall D.impl; emit b } }
class C { method go { call E.run; call D.impl } }
class D { method impl { emit d } }
class E { method run { emit e } }
dynamic class X extends D { method impl { call E.run; call D.impl; emit x } }
`, seeds: 4},
		{name: "selective", src: `
entry A.main
class A { method main { call B.go; emit top } }
class B { method go { call D.lib; emit b } }
library class D { method lib { call F.lib } }
library class F { method lib { call G.cb } }
class G { method cb { emit g } }
`, setting: cha.EncodingApplication, seeds: 2},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			prog := lang.MustParse(p.src)
			build, err := cha.Build(prog, cha.Options{Setting: p.setting, KeepUnreachable: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Encode(build.Graph, core.Options{MaxID: p.maxID})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
			if err != nil {
				t.Fatal(err)
			}
			dec := encoding.Compile(res.Spec)
			for seed := uint64(0); seed < uint64(p.seeds); seed++ {
				vm, err := minivm.NewVM(prog, seed)
				if err != nil {
					t.Fatal(err)
				}
				// The encoder only provides the probe traffic the VM
				// expects; the assertions are about ReencodeDirect alone.
				vm.SetProbes(instrument.NewEncoder(plan))
				vm.SetInstrumented(plan.InstrumentedMethods())
				walker := &stackwalk.Walker{Filter: plan.InstrumentedMethods()}
				checked := 0
				vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
					var path []callgraph.NodeID
					var truth []string
					for _, f := range walker.Capture(v) {
						if n, ok := build.NodeOf[f]; ok {
							path = append(path, n)
							truth = append(truth, f.String())
						}
					}
					if len(path) == 0 {
						return
					}
					entry, _ := build.Graph.Entry()
					st := stackwalk.ReencodeDirect(res.Spec, entry, path, nil, nil)
					names, err := dec.DecodeNames(st, path[len(path)-1])
					if err != nil {
						t.Fatalf("seed %d at %s: reencoded state undecodable: %v", seed, m, err)
					}
					var got []string
					for _, n := range names {
						if n != "..." {
							got = append(got, n)
						}
					}
					if strings.Join(got, ">") != strings.Join(truth, ">") {
						t.Fatalf("seed %d at %s: reencode decodes to\n  %s\nwant\n  %s",
							seed, m, strings.Join(got, ">"), strings.Join(truth, ">"))
					}
					checked++
				}
				if err := vm.Run(); err != nil {
					t.Fatal(err)
				}
				if checked == 0 {
					t.Fatalf("seed %d: no contexts checked; test is vacuous", seed)
				}
			}
		})
	}
}

// TestReencodeEmptyPath pins the degenerate case: a walk that saw no
// analysed frame reencodes to a fresh state at the program entry.
func TestReencodeEmptyPath(t *testing.T) {
	spec := &encoding.Spec{Graph: callgraph.New()}
	entry := spec.Graph.AddNode("main", false)
	st := stackwalk.ReencodeDirect(spec, entry, nil, nil, nil)
	if st.ID != 0 || st.Start != entry || len(st.Stack) != 0 {
		t.Fatalf("unexpected state %+v", st)
	}
}
