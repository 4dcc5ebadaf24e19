package instrument

import (
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
)

// spawnProgram: main spawns two worker tasks; workers share helpers with
// main-rooted code; one worker is also callable directly.
const spawnProgram = `
entry Main.main
class Main {
  method main {
    spawn Worker.run
    spawn Worker.drain
    call Worker.run          # also invoked synchronously
    loop 2 { call Util.tick }
    emit main_done
  }
}
class Worker {
  method run { call Util.tick; emit ran }
  method drain { loop 3 { call Util.tick } vcall Sink.put; emit drained }
}
class Util { method tick { emit tick } }
class Sink { method put { emit put } }
class Sink2 extends Sink { method put { call Util.tick; emit put } }
`

func TestSpawnContextsRootAtTaskEntry(t *testing.T) {
	prog := lang.MustParse(spawnProgram)
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(build.SpawnEntries) != 2 {
		t.Fatalf("spawn entries = %v, want Worker.run and Worker.drain", build.SpawnEntries)
	}
	var anchors []callgraph.NodeID
	for _, sp := range build.SpawnEntries {
		anchors = append(anchors, build.NodeOf[sp])
	}
	res, err := core.Encode(build.Graph, core.Options{ForceAnchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(plan)
	vm, err := minivm.NewVM(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	dec := encoding.Compile(res.Spec)
	taskRooted := 0
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
			truth = append(truth, f.String())
		}
		var got []string
		for _, n := range names {
			if n != "..." {
				got = append(got, n)
			}
		}
		if strings.Join(got, ">") != strings.Join(truth, ">") {
			t.Fatalf("spawn decode mismatch at %s:\n got  %v\n want %v", m, names, truth)
		}
		if len(truth) > 0 && strings.HasPrefix(truth[0], "Worker.") {
			taskRooted++
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Tasks != 2 {
		t.Fatalf("executor ran %d tasks, want 2", vm.Tasks)
	}
	if taskRooted == 0 {
		t.Fatal("no contexts rooted at a task entry were verified")
	}
}

func TestSpawnViaPublicAPI(t *testing.T) {
	// The root-package Analyze wires spawn entries automatically; this
	// mirrors what library users get.
	prog := lang.MustParse(spawnProgram)
	build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	var anchors []callgraph.NodeID
	for _, sp := range build.SpawnEntries {
		anchors = append(anchors, build.NodeOf[sp])
	}
	res, err := core.Encode(build.Graph, core.Options{ForceAnchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	// Spawn entries are runtime anchors.
	for _, sp := range build.SpawnEntries {
		if !res.Spec.Anchors[build.NodeOf[sp]] {
			t.Fatalf("spawn entry %s is not an anchor", sp)
		}
	}
}
