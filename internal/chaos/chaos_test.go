package chaos

// The chaos suite: the package's injector (the adversary) against the
// recovery protocol in internal/instrument (the defender), over generated
// workload-corpus programs. The property under test, per run: after every
// injected fault, the self-healing protocol at the next emit point inside
// an analysed method leaves a state whose decoded context is exactly the
// stack-walk ground truth — no panics, no non-terminating decodes, no
// silently wrong contexts.
//
// The tests live in-package (they exercise unexported event plumbing), so
// they build their own analysis pipeline from the internal packages; the
// root deltapath package cannot be imported here (it imports chaos).

import (
	"strings"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/verify"
	"deltapath/internal/workload"
)

type bench struct {
	name    string
	prog    *minivm.Program
	build   *cha.Result
	spec    *encoding.Spec
	cptPlan *cpt.Plan
	plan    *instrument.Plan
	dec     *encoding.CompiledDecoder
	window  uint64 // probe events in a fault-free reference run
}

var benchCache []*bench

// corpus are the workload programs the suite runs: two scaled-down
// SPECjvm2008-shaped benchmarks (virtual dispatch, tasks, dynamic loading,
// exceptions, recursion) plus a micro program small enough that one-shot
// faults land densely across its event window.
func corpus(t *testing.T) []workload.Params {
	t.Helper()
	compress, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress not in suite")
	}
	monte, ok := workload.ByName("scimark.monte_carlo")
	if !ok {
		t.Fatal("scimark.monte_carlo not in suite")
	}
	micro := workload.Params{
		Name: "chaos.micro", Seed: 7,
		LibClasses: 12, LibMethods: 4, AppClasses: 6, AppMethods: 4,
		LibFamilies: 3, AppFamilies: 2, FamilySubs: 3,
		Layers: 6, CallsPerMethod: 2,
		VirtualFrac: 0.4, CallbackFrac: 0.05, RecursionFrac: 0.05,
		ExceptionFrac: 0.05, DynClasses: 2, SpawnTasks: 2,
		ExecDepth: 8, LoopTrip: 6, WorkUnits: 2, EmitFrac: 0.4,
	}
	return []workload.Params{compress.Scale(0.01), monte.Scale(0.01), micro}
}

func benches(t *testing.T) []*bench {
	t.Helper()
	if benchCache != nil {
		return benchCache
	}
	for _, p := range corpus(t) {
		prog, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", p.Name, err)
		}
		build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		cptPlan := cpt.Compute(build.Graph)
		plan, err := instrument.NewPlan(build, res.Spec, cptPlan)
		if err != nil {
			t.Fatalf("%s: plan: %v", p.Name, err)
		}
		// The static certificate must hold before any chaos runs: an
		// unsound encoding would make every "healed" assertion vacuous.
		if rep := verify.Check(res.Spec, cptPlan, verify.Options{}); !rep.Clean() {
			t.Fatalf("%s: analysis fails static verification before injection:\n%s", p.Name, rep.Text())
		}
		b := &bench{
			name:    p.Name,
			prog:    prog,
			build:   build,
			spec:    res.Spec,
			cptPlan: cptPlan,
			plan:    plan,
			dec:     encoding.Compile(res.Spec),
		}
		// Measure the probe-event window with a quiet injector, so one-shot
		// faults can be aimed anywhere in a run.
		_, inj := runVerified(t, b, Config{}, 1)
		b.window = inj.Events()
		if b.window == 0 {
			t.Fatalf("%s: no probe events; corpus program is vacuous", p.Name)
		}
		benchCache = append(benchCache, b)
	}
	return benchCache
}

// runVerified executes one seeded run of b under cfg with the full
// self-healing protocol at every analysed emit point, asserting the
// headline property each time: the decoded context, gaps removed, equals
// the VM's stack filtered to instrumented methods.
func runVerified(t *testing.T, b *bench, cfg Config, vmSeed uint64) (*instrument.Encoder, *Injector) {
	t.Helper()
	enc := instrument.NewEncoder(b.plan)
	enc.SetDecoder(b.dec)
	inj := NewInjector(enc, cfg)
	vm, err := minivm.NewVM(b.prog, vmSeed)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(inj)
	vm.SetInstrumented(b.plan.InstrumentedMethods())
	checked := 0
	vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := b.build.NodeOf[m]
		if !known {
			return // emit inside unanalysed code: encoding does not apply
		}
		enc.VerifyAndResync(v)
		names, err := b.dec.DecodeNames(enc.State().Snapshot(), node)
		if err != nil {
			t.Fatalf("%s seed %d fault %v event %d: post-heal decode failed at %s: %v",
				b.name, vmSeed, cfg.OneShotFault, cfg.OneShotEvent, m, err)
		}
		var truth []string
		for _, f := range v.Stack() {
			if _, ok := b.build.NodeOf[f]; ok {
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
			t.Fatalf("%s seed %d fault %v event %d: post-heal context mismatch at %s:\n  got  %s (full: %v)\n  want %s",
				b.name, vmSeed, cfg.OneShotFault, cfg.OneShotEvent, m,
				strings.Join(got, ">"), names, strings.Join(truth, ">"))
		}
		checked++
	}
	if err := vm.Run(); err != nil {
		t.Fatalf("%s seed %d: vm: %v", b.name, vmSeed, err)
	}
	if checked == 0 {
		t.Fatalf("%s seed %d: no contexts verified; run is vacuous", b.name, vmSeed)
	}
	// Post-heal certification: whenever this run detected or healed a
	// corruption, the static analysis the recovery decoded against must
	// still verify clean — a healed-but-unsound state would mean the
	// dynamic assertions above passed against a broken injectivity proof,
	// which the per-emit decode==truth check alone cannot distinguish.
	if h := enc.Health; h.CorruptionsDetected > 0 || h.Resyncs > 0 {
		if rep := verify.Check(b.spec, b.cptPlan, verify.Options{}); !rep.Clean() {
			t.Fatalf("%s seed %d fault %v: analysis fails static verification after heal (health %+v):\n%s",
				b.name, vmSeed, cfg.OneShotFault, h, rep.Text())
		}
	}
	return enc, inj
}

// TestCheckerQuietWithoutFaults pins the false-positive rate of the
// invariant checker at zero: with the injector disarmed, no run over the
// corpus may detect a corruption or resync.
func TestCheckerQuietWithoutFaults(t *testing.T) {
	for _, b := range benches(t) {
		for seed := uint64(0); seed < 3; seed++ {
			enc, inj := runVerified(t, b, Config{}, seed)
			if h := enc.Health; h != (instrument.Health{}) {
				t.Fatalf("%s seed %d: health counters moved without faults: %+v", b.name, seed, h)
			}
			if inj.TotalInjected() != 0 {
				t.Fatalf("%s seed %d: disarmed injector injected", b.name, seed)
			}
		}
	}
}

// TestOneShotFaultsHealed is the property suite of the acceptance
// criteria: across ≥1000 seeded runs (benches × fault classes × seeds),
// one attributable fault is injected per run at a seeded position in the
// event window, and every analysed emit after it must still decode to the
// stack-walk ground truth. runVerified asserts the property; this driver
// also checks the faults actually fired often enough to mean anything.
func TestOneShotFaultsHealed(t *testing.T) {
	seedsPer := 48
	if testing.Short() {
		seedsPer = 4
	}
	runs, fired, healed := 0, 0, 0
	firedBy := make(map[Fault]int)
	healedBy := make(map[Fault]int)
	for _, b := range benches(t) {
		for _, f := range AllFaults() {
			for s := 0; s < seedsPer; s++ {
				ev := 1 + (uint64(s)*7919+uint64(f)*104729)%b.window
				cfg := Config{Seed: uint64(s)<<8 | uint64(f), OneShotEvent: ev, OneShotFault: f}
				enc, inj := runVerified(t, b, cfg, uint64(s%8))
				runs++
				if inj.TotalInjected() > 0 {
					fired++
					firedBy[f]++
				}
				if enc.Health.Resyncs > 0 {
					healed++
					healedBy[f]++
				}
			}
		}
	}
	if !testing.Short() && runs < 1000 {
		t.Fatalf("only %d runs; acceptance requires ≥1000", runs)
	}
	// A one-shot can miss (no eligible event after its position), and a
	// fired fault can be harmless — a dropped call whose addition value is
	// zero, a truncation of an already-empty stack, a fault after the last
	// emit. The non-vacuity bar is therefore not a blunt ratio but
	// coverage: injection must mostly fire, and (outside -short, where the
	// few seeds cannot cover every class) each fault class must have
	// produced at least one detected-and-healed corruption.
	if fired*2 < runs {
		t.Fatalf("only %d/%d runs injected a fault; event-window aiming is broken", fired, runs)
	}
	if healed == 0 {
		t.Fatal("no run resynced; faults are not reaching the checker")
	}
	if !testing.Short() {
		// DropCall and UnknownSite are MASKED rather than healed: dropping
		// a BeforeCall also suppresses its paired AfterCall (the token
		// bit), and call path tracking's hazard push at the callee's entry
		// absorbs the missing addition — so the state is never wrong at an
		// emit and the checker rightly stays quiet. runVerified has already
		// proven decode==truth throughout those runs; here we only require
		// that the classes actually fired. Every other class must have
		// produced at least one detected-and-healed corruption.
		masked := map[Fault]bool{DropCall: true, UnknownSite: true}
		for _, f := range AllFaults() {
			if masked[f] {
				if firedBy[f] == 0 {
					t.Errorf("masked fault class %v never fired", f)
				}
				continue
			}
			if healedBy[f] == 0 {
				t.Errorf("fault class %v never produced a healed corruption", f)
			}
		}
	}
	t.Logf("%d runs, %d injected, %d healed (%v)", runs, fired, healed, healedBy)
}

// TestRateStress soaks the protocol: sustained random faults of every
// class at a rate high enough that corruptions overlap, with the full
// verification at every emit. Counter sanity: every resync stems from at
// least one detection, and detections imply resyncs.
func TestRateStress(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, b := range benches(t) {
		sawFault := false
		for s := 0; s < seeds; s++ {
			enc, inj := runVerified(t, b, Config{Seed: uint64(s) + 1, Rate: 0.01}, uint64(s))
			if inj.TotalInjected() > 0 {
				sawFault = true
			}
			h := enc.Health
			if h.CorruptionsDetected < h.Resyncs {
				t.Fatalf("%s seed %d: %d resyncs from only %d detections", b.name, s, h.Resyncs, h.CorruptionsDetected)
			}
			if h.Resyncs == 0 && h.CorruptionsDetected > 0 {
				t.Fatalf("%s seed %d: %d detections never healed", b.name, s, h.CorruptionsDetected)
			}
		}
		if !sawFault {
			t.Fatalf("%s: rate-based injection never fired", b.name)
		}
	}
}

// TestInjectorDeterminism pins the replay guarantee: identical configs
// produce identical fault streams and identical health outcomes.
func TestInjectorDeterminism(t *testing.T) {
	b := benches(t)[0]
	cfg := Config{Seed: 42, Rate: 0.01}
	encA, injA := runVerified(t, b, cfg, 5)
	encB, injB := runVerified(t, b, cfg, 5)
	if injA.Events() != injB.Events() || injA.TotalInjected() != injB.TotalInjected() {
		t.Fatalf("fault streams diverged: %d/%d events, %d/%d faults",
			injA.Events(), injB.Events(), injA.TotalInjected(), injB.TotalInjected())
	}
	if encA.Health != encB.Health {
		t.Fatalf("health diverged: %+v vs %+v", encA.Health, encB.Health)
	}
}
