package instrument

import (
	"strings"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/minivm"
	"deltapath/internal/workload"
)

// stressParams builds a small randomized workload program: virtual
// dispatch, recursion, dynamic loading, library exclusion — all the moving
// parts at once.
func stressParams(seed uint64) workload.Params {
	return workload.Params{
		Name: "stress", Seed: seed,
		LibClasses: 14, LibMethods: 4,
		AppClasses: 10, AppMethods: 3,
		LibFamilies: 4, AppFamilies: 3, FamilySubs: 3,
		Layers: 7, CallsPerMethod: 2,
		VirtualFrac: 0.45, CallbackFrac: 0.06, RecursionFrac: 0.08,
		DynClasses: 2, ExecDepth: 8, LoopTrip: 12,
		WorkUnits: 1, EmitFrac: 0.6,
	}
}

type stressConfig struct {
	name    string
	setting cha.Setting
	cptOn   bool
	maxID   uint64
}

// TestStressRandomWorkloads is the heavyweight end-to-end property test:
// across random programs, dispatch seeds, encoding settings, integer
// widths, and CPT on/off, every context captured at an emit point must
// decode exactly to the ground-truth stack (filtered to analysed methods,
// with gaps where unanalysed code ran), and every encoding key must
// identify exactly one context.
func TestStressRandomWorkloads(t *testing.T) {
	configs := []stressConfig{
		{"all-cpt", cha.EncodingAll, true, 0},
		{"app-cpt", cha.EncodingApplication, true, 0},
		{"all-cpt-w16", cha.EncodingAll, true, 1<<16 - 1},
		{"app-cpt-w12", cha.EncodingApplication, true, 1<<12 - 1},
	}
	progSeeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		progSeeds = progSeeds[:2]
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			checked := 0
			for _, ps := range progSeeds {
				prog, err := stressParams(ps).Generate()
				if err != nil {
					t.Fatal(err)
				}
				checked += stressOne(t, prog, cfg, ps*31+7)
			}
			if checked < 500 {
				t.Fatalf("only %d contexts verified; stress too weak", checked)
			}
			t.Logf("verified %d contexts", checked)
		})
	}
}

func stressOne(t *testing.T, prog *minivm.Program, cfg stressConfig, dispatchSeed uint64) int {
	t.Helper()
	build, err := cha.Build(prog, cha.Options{Setting: cfg.setting, KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{MaxID: cfg.maxID})
	if err != nil {
		t.Fatalf("encode (maxID %d): %v", cfg.maxID, err)
	}
	var cp *cpt.Plan
	if cfg.cptOn {
		cp = cpt.Compute(build.Graph)
	}
	plan, err := NewPlan(build, res.Spec, cp)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(plan)
	vm, err := minivm.NewVM(prog, dispatchSeed)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	dec := encoding.Compile(res.Spec)
	keyCtx := make(map[string]string)
	checked := 0
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := build.NodeOf[m]
		if !known {
			return
		}
		st := enc.State().Snapshot()
		var truth []string
		for _, f := range v.Stack() {
			if _, ok := build.NodeOf[f]; ok {
				truth = append(truth, f.String())
			}
		}
		truthStr := strings.Join(truth, ">")
		key := st.Key(node)
		if prev, dup := keyCtx[key]; dup {
			if prev != truthStr {
				t.Fatalf("[%s] key collision: %q is both %q and %q", cfg.name, key, prev, truthStr)
			}
		} else {
			keyCtx[key] = truthStr
		}
		names, err := dec.DecodeNames(st, node)
		if err != nil {
			t.Fatalf("[%s] decode at %s (truth %s): %v", cfg.name, m, truthStr, err)
		}
		var got []string
		for _, n := range names {
			if n != "..." {
				got = append(got, n)
			}
		}
		if strings.Join(got, ">") != truthStr {
			t.Fatalf("[%s] mismatch at %s:\n got  %v\n want %s", cfg.name, m, names, truthStr)
		}
		checked++
		if cfg.maxID != 0 && st.ID > cfg.maxID {
			t.Fatalf("[%s] runtime ID %d exceeds width limit %d", cfg.name, st.ID, cfg.maxID)
		}
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if d := enc.State().Depth(); d != 1 || enc.State().ID != 0 {
		t.Fatalf("[%s] encoder unbalanced after run", cfg.name)
	}
	return checked
}
