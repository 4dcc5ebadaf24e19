package hybrid

import (
	"strings"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
	"deltapath/internal/stackwalk"
)

// hybridProgram has an obvious hot trunk (main -> Dispatch.route ->
// Handler.handle runs every iteration) and a colder periphery.
const hybridProgram = `
entry Main.main
class Main {
  method main {
    loop 12 { call Dispatch.route }
    call Admin.rare
    emit done
  }
}
class Dispatch {
  method route { call Handler.handle; emit routed }
}
class Handler {
  method handle { call Worker.step; emit handled }
}
class Worker {
  method step { call Util.leaf; emit stepped }
}
class Admin {
  method rare { call Util.leaf; emit admin }
}
class Util { method leaf { emit leaf } }
`

func buildHybrid(t *testing.T) *Analysis {
	t.Helper()
	prog := lang.MustParse(hybridProgram)
	a, err := Build(prog, Options{HotContexts: 4, TrainSeeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTrunkDerivedFromProfile(t *testing.T) {
	a := buildHybrid(t)
	if a.TrunkSize() == 0 {
		t.Fatal("no trunk derived")
	}
	// The hot chain must be in the trunk.
	for _, m := range []minivm.MethodRef{
		{Class: "Dispatch", Method: "route"},
	} {
		if !a.trunk[m] {
			t.Fatalf("hot method %s not in trunk (trunk: %v)", m, a.trunk)
		}
	}
}

func TestHybridDecodesHotAndColdContexts(t *testing.T) {
	a := buildHybrid(t)
	prog := a.prog
	enc := a.NewEncoder()
	vm, err := minivm.NewVM(prog, 1) // a training seed: prefixes known
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(a.instrumentedMethods())
	walker := &stackwalk.Walker{}
	full, resolved := 0, 0
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		cap := enc.Capture()
		names, err := a.Decode(cap, m)
		if err != nil {
			t.Fatalf("decode at %s: %v", m, err)
		}
		truth := stackwalk.Key(walker.Capture(v))
		got := strings.Join(names, ">")
		full++
		if !strings.Contains(got, "...") {
			resolved++
			if got != truth {
				t.Fatalf("hybrid decode mismatch at %s:\n got  %s\n want %s", m, got, truth)
			}
		} else {
			// Gapped decode: the non-gap parts must match the truth's
			// tail exactly.
			parts := strings.Split(got, "...")
			tail := strings.TrimPrefix(parts[len(parts)-1], ">")
			if tail != "" && !strings.HasSuffix(truth, tail) {
				t.Fatalf("gapped decode tail %q not a suffix of truth %q", tail, truth)
			}
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if full == 0 {
		t.Fatal("no contexts decoded")
	}
	if resolved == 0 {
		t.Fatal("no hot contexts fully resolved through the trained table")
	}
	t.Logf("decoded %d contexts, %d fully resolved via trunk table", full, resolved)
}

func TestHybridShrinksDeltaPathSide(t *testing.T) {
	a := buildHybrid(t)
	prog := a.prog
	full, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(full.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if a.DeltaPathSites() >= full.Graph.NumSites() {
		t.Fatalf("hybrid DeltaPath instruments %d sites, full DeltaPath %d — no savings",
			a.DeltaPathSites(), full.Graph.NumSites())
	}
}

func TestHybridUntrainedPrefixStaysHonest(t *testing.T) {
	a := buildHybrid(t)
	// A capture with a PCC value never seen in training must decode with
	// a gap, not a wrong prefix.
	enc := a.NewEncoder()
	vm, err := minivm.NewVM(a.prog, 77) // unseen seed: dispatch same here, but
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(a.instrumentedMethods())
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		cap := enc.Capture()
		cap.V = 0xdeadbeef // corrupt: untrained value
		if _, known := a.build.NodeOf[m]; !known {
			return
		}
		names, err := a.Decode(cap, m)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Any context that crossed the trunk must now show a gap.
		joined := strings.Join(names, ">")
		if strings.Contains(joined, "Dispatch.route") {
			t.Fatalf("untrained V resolved a trunk frame: %s", joined)
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridSiteIDSpace: the entry method's call sites carry both a PCC
// trunk constant and, where the callee lies outside the trunk, a DeltaPath
// payload. The trunk side wins — the split puts the entry's calls on the
// PCC side — so every trunk site resolves into the PCC id range.
func TestHybridSiteIDSpace(t *testing.T) {
	a := buildHybrid(t)
	enc := a.NewEncoder()
	both := 0
	for ref, k := range a.trunkSite {
		if enc.dp.ResolveSite(ref) >= 0 {
			both++
		}
		if got := enc.ResolveSite(ref); got != enc.pccBase+k {
			t.Errorf("trunk site %v resolved to %d, want PCC id %d", ref, got, enc.pccBase+k)
		}
	}
	if both == 0 {
		t.Fatal("no trunk site also carries a DeltaPath payload; the program no longer exercises the overlap")
	}
}
