package deltapath

import (
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/core"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
)

// The epoch differential suite: random interleavings of class loads, calls
// and incremental extensions, with every captured event decoded against its
// recorded epoch and checked frame-exactly against two oracles —
//
//  1. the VM's ground-truth call stack at the emit (analysed frames by
//     name, unanalysed stretches as gaps), and
//  2. a whole-program re-analysis: for each epoch the interleaving
//     published, a fresh Analyze over the program with that epoch's
//     absorbed classes promoted to static, replayed over the *original*
//     program's VM with the same dispatch seed. The replay is
//     step-identical to the incremental run (promotion changes analysis,
//     never dispatch), so event i of the incremental run must decode to
//     exactly what epoch(i)'s oracle decodes for its event i.
//
// Together these certify the tentpole contract: an incrementally extended
// epoch is indistinguishable, context for context, from the analysis a full
// re-run would have produced. Decodes do not read what an epoch keeps for
// the next Extend (its clean nodes' cells), so each epoch whose delta keeps
// the old nodes' topological order is also compared with the from-scratch
// core analysis cell for cell (checkRetained).

// diffSrc is the interleaving workhorse: three dynamic classes joining two
// dispatch chains at different times, including a subclass-of-dynamic (Y)
// and a class that makes an old site recursive once absorbed (Z calls
// P.tail, which dispatches back into Z.op).
const diffSrc = `
entry P.main
class P {
  method main {
    call P.warm
    load X
    loop 2 { vcall Q.op }
    load Y
    loop 2 { vcall Q.op }
    load Z
    loop 3 { vcall Q.op }
    call P.tail
    emit fin
  }
  method warm { vcall Q.op; emit warm }
  method tail { vcall Q.op }
}
class Q { method op { call S.leaf; emit qop } }
class S { method leaf { emit leaf } }
dynamic class X extends Q { method op { call S.leaf; emit xop } }
dynamic class Y extends X { method op { emit yop } }
dynamic class Z extends Q { method op { call P.tail; emit zop } }
`

// diffEvent is one emit of an interleaved run.
type diffEvent struct {
	decoded string // rendered decode, or "?" when the emit point is unanalysed
	epoch   uint64
	stack   []MethodRef // ground-truth VM stack at the emit
}

// runInterleaved executes prog once, extending by schedule[i] (and adopting)
// right after event i is captured, and returns every event decoded against
// its recorded epoch. absorbedAt records each published epoch's absorbed
// list, and retained counts the epochs checkRetained compared.
func runInterleaved(t *testing.T, prog *Program, opts Options, seed uint64, schedule map[int][]string) (events []diffEvent, absorbedAt map[uint64][]string, retained int) {
	t.Helper()
	an, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := an.NewSession(seed)
	if err != nil {
		t.Fatal(err)
	}
	absorbedAt = map[uint64][]string{0: nil}
	idx := 0
	_, err = s.Run(func(c Context) {
		ev := diffEvent{decoded: "?", epoch: c.Epoch(), stack: append([]MethodRef(nil), s.VM().Stack()...)}
		if c.known {
			names, derr := an.Decode(c)
			if derr != nil {
				t.Errorf("seed %d event %d: decode: %v", seed, idx, derr)
			}
			ev.decoded = strings.Join(names, " > ")
		}
		events = append(events, ev)
		if classes, ok := schedule[idx]; ok {
			prev := an.epoch()
			if _, eerr := an.Extend(classes...); eerr != nil {
				t.Errorf("seed %d event %d: Extend(%v): %v", seed, idx, classes, eerr)
			} else {
				s.Adopt()
				absorbedAt[an.Epoch()] = an.Absorbed()
				if verr := an.VerifyEncoding(); verr != nil {
					t.Errorf("seed %d event %d: epoch %d fails verification: %v", seed, idx, an.Epoch(), verr)
				}
				if checkRetained(t, prev, an.epoch(), opts.MaxID) {
					retained++
				}
			}
		}
		idx++
	})
	if err != nil {
		t.Fatal(err)
	}
	return events, absorbedAt, retained
}

// checkRetained compares epoch ep, which an Extend of prev published, with
// the from-scratch analysis it must equal when the grown graph keeps the old
// nodes' topological order: core.Encode over the grown graph with prev's
// resetting anchors forced. Addition values, anchors and every node's ICC
// cells must agree, so a cell carried over wrong shows in the epoch that
// keeps it, not only through a later Extend's addition values. It reports
// whether ep qualified.
func checkRetained(t *testing.T, prev, ep *epochState, maxID uint64) bool {
	t.Helper()
	g := ep.build.Graph
	if !oldOrderKept(t, prev.build.Graph, g) {
		return false
	}
	force := make([]callgraph.NodeID, 0, len(prev.result.Spec.Anchors))
	for n := range prev.result.Spec.Anchors {
		force = append(force, n)
	}
	slices.Sort(force)
	want, err := core.Encode(g, core.Options{MaxID: maxID, ForceAnchors: force})
	if err != nil {
		t.Errorf("epoch %d: from-scratch Encode: %v", ep.id, err)
		return true
	}
	got := ep.result
	if !slices.Equal(got.Spec.SiteAV, want.Spec.SiteAV) {
		t.Errorf("epoch %d: SiteAV %v, from scratch %v", ep.id, got.Spec.SiteAV, want.Spec.SiteAV)
	}
	if !maps.Equal(got.Spec.Anchors, want.Spec.Anchors) {
		t.Errorf("epoch %d: anchors %v, from scratch %v", ep.id, got.Spec.Anchors, want.Spec.Anchors)
	}
	for _, n := range g.Nodes() {
		if !slices.Equal(got.ICC(n), want.ICC(n)) {
			t.Errorf("epoch %d: ICC(%s) = %v, from scratch %v", ep.id, g.Name(n), got.ICC(n), want.ICC(n))
		}
	}
	return true
}

// oldOrderKept reports whether g's topological order, restricted to the
// nodes of old, is old's own.
func oldOrderKept(t *testing.T, old, g *callgraph.Graph) bool {
	t.Helper()
	ot, err := old.TopoOrder(old.RecursiveEdges())
	if err != nil {
		t.Fatal(err)
	}
	gt, err := g.TopoOrder(g.RecursiveEdges())
	if err != nil {
		t.Fatal(err)
	}
	gt = slices.DeleteFunc(gt, func(n callgraph.NodeID) bool { return int(n) >= old.NumNodes() })
	return slices.Equal(ot, gt)
}

// promote returns prog with the absorbed classes moved to the static set,
// in absorption order — the whole-program oracle's input. Class definitions
// are shared (they are read-only after Normalize).
func promote(prog *Program, absorbed []string) *Program {
	isAbs := make(map[string]bool, len(absorbed))
	for _, name := range absorbed {
		isAbs[name] = true
	}
	out := &Program{Entry: prog.Entry}
	out.Classes = append(out.Classes, prog.Classes...)
	for _, name := range absorbed {
		for _, c := range prog.Dynamic {
			if c.Name == name {
				out.Classes = append(out.Classes, c)
			}
		}
	}
	for _, c := range prog.Dynamic {
		if !isAbs[c.Name] {
			out.Dynamic = append(out.Dynamic, c)
		}
	}
	return out
}

// oracleDecodes replays prog under the whole-program oracle for one
// absorbed set: a fresh Analyze over the promoted program, driving the
// original program's VM (same seed, so the run is step-identical to the
// incremental one) with the oracle's plan. It returns the decode of every
// event.
func oracleDecodes(t *testing.T, prog *Program, absorbed []string, opts Options, seed uint64) []string {
	t.Helper()
	oan, err := Analyze(promote(prog, absorbed), opts)
	if err != nil {
		t.Fatalf("oracle Analyze(absorbed=%v): %v", absorbed, err)
	}
	ep := oan.epoch()
	vm, err := minivm.NewVM(prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	enc := instrument.NewEncoder(ep.plan)
	vm.SetProbes(enc)
	vm.SetInstrumented(ep.plan.InstrumentedMethods())
	vm.MarkAnalyzed(absorbed...)
	var out []string
	vm.OnEmit = func(_ *minivm.VM, m MethodRef, _ string) {
		node, known := ep.build.NodeOf[m]
		if !known {
			out = append(out, "?")
			return
		}
		names, derr := ep.decoder.DecodeNames(enc.State().Snapshot(), node)
		if derr != nil {
			t.Errorf("oracle(absorbed=%v) decode at %s: %v", absorbed, m, derr)
			out = append(out, "!")
			return
		}
		out = append(out, strings.Join(names, " > "))
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEpochDifferential is the randomized differential: many (seed,
// interleaving) pairs, each checked frame-exactly against both oracles.
func TestEpochDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	progs := map[string]string{"diff": diffSrc, "dynload": readTestdata(t, "testdata/dynload.mv")}
	for name, src := range progs {
		src := src
		t.Run(name, func(t *testing.T) {
			prog := mustParse(t, src)
			var dynNames []string
			for _, c := range prog.Dynamic {
				dynNames = append(dynNames, c.Name)
			}
			retained := 0
			for trial := 0; trial < trials; trial++ {
				retained += runDifferentialTrial(t, prog, dynNames, trial)
				if t.Failed() {
					return
				}
			}
			if retained == 0 {
				t.Error("no epoch kept the old nodes' topological order; the retained state went unchecked")
			}
		})
	}
}

// runDifferentialTrial derives one random interleaving from the trial
// number, runs it, and checks every event against both oracles. It returns
// how many of its epochs checkRetained compared.
func runDifferentialTrial(t *testing.T, prog *Program, dynNames []string, trial int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial) * 7919))
	seed := uint64(rng.Intn(8))
	opts := Options{}
	// Count the run's events once, un-extended, to place extensions.
	base, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseContexts, err := base.Run(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	nEvents := len(baseContexts)
	// Random interleaving: absorb the dynamic classes in shuffled order,
	// split into 1..len batches, each batch at a random event index.
	order := append([]string(nil), dynNames...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	schedule := make(map[int][]string)
	for len(order) > 0 {
		k := 1 + rng.Intn(len(order))
		batch := order[:k]
		order = order[k:]
		at := rng.Intn(nEvents)
		schedule[at] = append(schedule[at], batch...)
	}

	events, absorbedAt, retained := runInterleaved(t, prog, opts, seed, schedule)
	if t.Failed() {
		return retained
	}
	if len(events) != nEvents {
		t.Fatalf("trial %d: interleaved run emitted %d events, un-extended run %d — executions diverged", trial, len(events), nEvents)
	}

	// Oracle 1: ground truth stacks.
	for i, ev := range events {
		if ev.decoded == "?" {
			continue
		}
		absorbed := absorbedAt[ev.epoch]
		analysedSet := make(map[string]bool, len(absorbed))
		for _, name := range absorbed {
			analysedSet[name] = true
		}
		want := renderStack(ev.stack, func(m MethodRef) bool {
			if dynamicClassOf(prog, m.Class) != nil {
				return analysedSet[m.Class]
			}
			return true
		})
		if ev.decoded != want {
			t.Fatalf("trial %d event %d (epoch %d): decoded\n  %s\nground truth\n  %s",
				trial, i, ev.epoch, ev.decoded, want)
		}
	}

	// Oracle 2: whole-program re-analysis per epoch, frame-exact per event.
	oracles := make(map[uint64][]string)
	for epoch, absorbed := range absorbedAt {
		oracles[epoch] = oracleDecodes(t, prog, absorbed, opts, seed)
		if t.Failed() {
			return retained
		}
	}
	for i, ev := range events {
		oracle := oracles[ev.epoch]
		if len(oracle) != nEvents {
			t.Fatalf("trial %d: oracle for epoch %d emitted %d events, want %d — replay diverged",
				trial, ev.epoch, len(oracle), nEvents)
		}
		if ev.decoded != oracle[i] {
			t.Fatalf("trial %d event %d (epoch %d, absorbed %v): incremental decodes\n  %s\nwhole-program oracle decodes\n  %s",
				trial, i, ev.epoch, absorbedAt[ev.epoch], ev.decoded, oracle[i])
		}
	}
	return retained
}

// TestExtendSoak is the long randomized soak ci-local runs under -race
// (make extend-soak): EXTEND_SOAK_TRIALS interleavings, default small so
// the plain test run stays fast.
func TestExtendSoak(t *testing.T) {
	trials := 5
	if s := os.Getenv("EXTEND_SOAK_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("EXTEND_SOAK_TRIALS=%q: %v", s, err)
		}
		trials = n
	}
	prog := mustParse(t, diffSrc)
	for trial := 0; trial < trials; trial++ {
		runDifferentialTrial(t, prog, []string{"X", "Y", "Z"}, 1_000_000+trial)
		if t.Failed() {
			return
		}
	}
}
