// Benchmarks regenerating the paper's evaluation artifacts (Section 6) and
// the ablations called out in DESIGN.md.
//
// Every table and figure has a bench that produces its rows:
//
//	BenchmarkTable1StaticAnalysis  — Table 1 (per-benchmark static analysis)
//	BenchmarkFig8Throughput        — Figure 8 (native / PCC / DeltaPath wo & w CPT)
//	BenchmarkTable2Collection      — Table 2 (context collection + statistics)
//
// The full, table-formatted output comes from cmd/dpbench; the benches here
// give per-phase timings and verify the pipeline under the Go benchmark
// harness. Ablations quantify the design decisions:
//
//	BenchmarkAblationBigInt*       — big.Int encoding arithmetic vs uint64
//	                                 (why anchors instead of BigInteger, §3.2)
//	BenchmarkAblationSwitchDispatch— PCCE per-target dispatch switch vs
//	                                 DeltaPath's single addition value (§3.1)
//	BenchmarkAblationDepthTracking — depth-counter UCP detection vs call
//	                                 path tracking (§4.1 alternative)
//	BenchmarkAblationStackWalk     — walking the stack at every emit vs
//	                                 maintaining the encoding
package deltapath

import (
	"fmt"
	"math/big"
	"testing"

	"deltapath/internal/breadcrumbs"
	"deltapath/internal/callgraph"
	"deltapath/internal/cct"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/pcc"
	"deltapath/internal/pcce"
	"deltapath/internal/stackwalk"
	"deltapath/internal/workload"
)

// benchSubset picks representative benchmarks spanning the regimes: a small
// program, a large >64-bit one (anchors), and a large application.
func benchSubset(b *testing.B) []workload.Params {
	b.Helper()
	var out []workload.Params
	for _, name := range []string{"compress", "crypto.aes", "xml.validation"} {
		p, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("missing benchmark %s", name)
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkTable1StaticAnalysis and BenchmarkTable2Collection live in
// eval_bench_test.go (the external test package): internal/eval imports
// the root package for the extend experiment, so in-package tests cannot
// import it back.

// BenchmarkFig8Throughput measures interpreter throughput per
// configuration; the reported steps/op correspond to Figure 8's bars.
func BenchmarkFig8Throughput(b *testing.B) {
	for _, p := range benchSubset(b) {
		p := p
		prog, err := p.Scale(0.05).Generate()
		if err != nil {
			b.Fatal(err)
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		planNoCPT, err := instrument.NewPlan(build, res.Spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		planCPT, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
		if err != nil {
			b.Fatal(err)
		}
		instrSet := planNoCPT.InstrumentedMethods()

		type config struct {
			name   string
			probes func() minivm.Probes
		}
		configs := []config{
			{"native", func() minivm.Probes { return nil }},
			{"pcc", func() minivm.Probes { return pcc.New(build) }},
			{"deltapath", func() minivm.Probes { return instrument.NewEncoder(planNoCPT) }},
			{"deltapath-cpt", func() minivm.Probes { return instrument.NewEncoder(planCPT) }},
		}
		for _, cfg := range configs {
			cfg := cfg
			b.Run(p.Name+"/"+cfg.name, func(b *testing.B) {
				var steps uint64
				for i := 0; i < b.N; i++ {
					vm, err := minivm.NewVM(prog, p.Seed)
					if err != nil {
						b.Fatal(err)
					}
					if probes := cfg.probes(); probes != nil {
						vm.SetProbes(probes)
						vm.SetInstrumented(instrSet)
					}
					if err := vm.Run(); err != nil {
						b.Fatal(err)
					}
					steps = vm.Steps
				}
				b.ReportMetric(float64(steps), "steps/op")
			})
		}
	}
}

// BenchmarkEncodeAlgorithm isolates Algorithm 2 (no generation, no
// estimation) on prebuilt graphs.
func BenchmarkEncodeAlgorithm(b *testing.B) {
	for _, p := range benchSubset(b) {
		p := p
		prog, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Encode(build.Graph, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures decoding latency: the paper's pitch is
// "deterministic and instant decoding" versus Breadcrumbs' seconds-long
// searches.
func BenchmarkDecode(b *testing.B) {
	p, _ := workload.ByName("compress")
	prog, err := p.Scale(0.02).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		b.Fatal(err)
	}
	enc := instrument.NewEncoder(plan)
	vm, err := minivm.NewVM(prog, p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	var states []*encoding.State
	var nodes []callgraph.NodeID
	vm.OnEmit = func(_ *minivm.VM, m minivm.MethodRef, _ string) {
		if node, ok := build.NodeOf[m]; ok && len(states) < 4096 {
			states = append(states, enc.State().Snapshot())
			nodes = append(nodes, node)
		}
	}
	if err := vm.Run(); err != nil {
		b.Fatal(err)
	}
	if len(states) == 0 {
		b.Fatal("no states collected")
	}
	dec := encoding.Compile(res.Spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(states)
		if _, err := dec.Decode(states[idx], nodes[idx]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUint64Add vs BenchmarkAblationBigIntAdd: the per-call
// cost of the encoding addition when IDs are machine integers versus
// arbitrary-precision integers at the magnitudes Table 1 requires (~2^70).
// This is the measurement behind Section 3.2's rejection of BigInteger in
// favour of anchor nodes.
func BenchmarkAblationUint64Add(b *testing.B) {
	var id uint64
	av := uint64(1) << 40
	for i := 0; i < b.N; i++ {
		id += av
		id -= av / 2
	}
	if id == 1 {
		b.Log(id)
	}
}

func BenchmarkAblationBigIntAdd(b *testing.B) {
	id := new(big.Int)
	av := new(big.Int).Lsh(big.NewInt(1), 70)
	half := new(big.Int).Rsh(av, 1)
	for i := 0; i < b.N; i++ {
		id.Add(id, av)
		id.Sub(id, half)
	}
}

// BenchmarkAblationAnchorPushPop: the cost anchors actually add per anchor
// invocation — what buys freedom from big integers.
func BenchmarkAblationAnchorPushPop(b *testing.B) {
	st := encoding.NewState(0)
	st.Add(12345)
	for i := 0; i < b.N; i++ {
		st.PushAnchor(7)
		st.Pop()
	}
}

// BenchmarkAblationSwitchDispatch compares run time under DeltaPath's
// single addition value per site against PCCE's per-target values, which
// need a dispatch-dependent lookup at every virtual call (Section 3.1).
func BenchmarkAblationSwitchDispatch(b *testing.B) {
	p, _ := workload.ByName("crypto.aes")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
	if err != nil {
		b.Fatal(err)
	}
	dp, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := pcce.Encode(build.Graph, pcce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		spec *encoding.Spec
	}{
		{"single-av", dp.Spec},
		{"per-target-switch", pc.Spec},
	} {
		cfg := cfg
		plan, err := instrument.NewPlan(build, cfg.spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm, err := minivm.NewVM(prog, p.Seed)
				if err != nil {
					b.Fatal(err)
				}
				vm.SetProbes(instrument.NewEncoder(plan))
				vm.SetInstrumented(plan.InstrumentedMethods())
				if err := vm.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStackWalk: obtaining every emitted context by walking
// the stack, the expensive exact alternative encodings replace.
func BenchmarkAblationStackWalk(b *testing.B) {
	p, _ := workload.ByName("compress")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	walker := &stackwalk.Walker{}
	for i := 0; i < b.N; i++ {
		vm, err := minivm.NewVM(prog, p.Seed)
		if err != nil {
			b.Fatal(err)
		}
		var sink int
		vm.OnEmit = func(v *minivm.VM, _ minivm.MethodRef, _ string) {
			sink += len(walker.Capture(v))
		}
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
		if sink == 0 {
			b.Fatal("no contexts walked")
		}
	}
}

// BenchmarkAblationGraphPruning quantifies the effect of reachability
// pruning on graph size and analysis time (the KeepUnreachable option).
func BenchmarkAblationGraphPruning(b *testing.B) {
	p, _ := workload.ByName("crypto.aes")
	prog, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		keep bool
	}{{"pruned", false}, {"unpruned", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				build, err := cha.Build(prog, cha.Options{KeepUnreachable: cfg.keep})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Encode(build.Graph, core.Options{}); err != nil {
					b.Fatal(err)
				}
				nodes = build.Graph.NumNodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkEncoderOps isolates the probe-level operation costs of the
// DeltaPath runtime: what one instrumented call and one instrumented entry
// cost.
func BenchmarkEncoderOps(b *testing.B) {
	prog, err := ParseProgram(`
entry A.main
class A {
  method main { loop 1000 { call A.f } }
  method f { work 1 }
}`)
	if err != nil {
		b.Fatal(err)
	}
	an, err := Analyze(prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("instrumented-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := an.NewSession(0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var _ = fmt.Sprintf // keep fmt imported for future debugging

// BenchmarkAblationDepthTracking compares the two UCP-detection schemes of
// Section 4.1 on the same workload: call path tracking (SID checks, no
// dynamic instrumentation) versus the depth-counter alternative (dynamic
// entries/exits instrumented, every cross-dynamic entry pushes).
func BenchmarkAblationDepthTracking(b *testing.B) {
	p, _ := workload.ByName("compress")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	planCPT, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		b.Fatal(err)
	}
	planPlain, err := instrument.NewPlan(build, res.Spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("call-path-tracking", func(b *testing.B) {
		var hazards uint64
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			enc := instrument.NewEncoder(planCPT)
			vm.SetProbes(enc)
			vm.SetInstrumented(planCPT.InstrumentedMethods())
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
			hazards = enc.Hazards
		}
		b.ReportMetric(float64(hazards), "pushes/op")
	})
	b.Run("depth-tracking", func(b *testing.B) {
		var hazards uint64
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			enc := instrument.NewDepthEncoder(planPlain)
			vm.SetProbes(enc)
			// Depth tracking cannot leave the excluded library
			// uninstrumented: its entries and exits must maintain the
			// counter (Section 4.2's argument for call path tracking).
			vm.SetInstrumented(nil)
			vm.SetProbeDynamic(true)
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
			hazards = enc.Hazards
		}
		b.ReportMetric(float64(hazards), "pushes/op")
	})
}

// BenchmarkAblationBigIntEncoder is the full-system version of the
// BigInt-vs-anchors ablation: the same >64-bit program run under (a) the
// anchor-based encoder (machine integers, Algorithm 2) and (b) the
// rejected strawman (arbitrary-precision ID, no anchors). Compare ns/op and
// B/op — the strawman allocates on the hot path.
func BenchmarkAblationBigIntEncoder(b *testing.B) {
	p, _ := workload.ByName("xml.validation")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := instrument.NewPlan(build, res.Spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	bigRes, err := core.EncodeBig(build.Graph)
	if err != nil {
		b.Fatal(err)
	}
	instrSet := plan.InstrumentedMethods()

	b.Run("anchors-uint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			vm.SetProbes(instrument.NewEncoder(plan))
			vm.SetInstrumented(instrSet)
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigint-no-anchors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			vm.SetProbes(instrument.NewBigEncoder(build, bigRes))
			vm.SetInstrumented(instrSet)
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCCT compares eager calling-context-tree maintenance
// (Section 7's related work) with DeltaPath encoding on the same workload:
// the CCT pays a map access and cursor movement at every call and
// materializes one node per distinct context.
func BenchmarkAblationCCT(b *testing.B) {
	p, _ := workload.ByName("compress")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := instrument.NewPlan(build, res.Spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	instrSet := plan.InstrumentedMethods()

	b.Run("deltapath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			vm.SetProbes(instrument.NewEncoder(plan))
			vm.SetInstrumented(instrSet)
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cct", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			vm, err := minivm.NewVM(prog, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			tree := cct.New(prog.Entry)
			vm.SetProbes(tree)
			vm.SetInstrumented(instrSet)
			if err := vm.Run(); err != nil {
				b.Fatal(err)
			}
			nodes = tree.Nodes()
		}
		b.ReportMetric(float64(nodes), "cct-nodes")
	})
}

// BenchmarkAblationBreadcrumbs puts the two decoding strategies side by
// side on the same collected contexts: DeltaPath's deterministic walk
// versus the Breadcrumbs-style search over PCC values (which ran offline
// with a 5-second budget per context in the original). Run on a modest
// subgraph so the search terminates at all.
func BenchmarkAblationBreadcrumbs(b *testing.B) {
	prog, err := ParseProgram(`
entry A.main
class A { method main { call B.f; call B.g; emit top } }
class B {
  method f { call C.h; call C.i }
  method g { call C.h; call C.i }
}
class C {
  method h { call D.x; emit h }
  method i { call D.x; emit i }
}
class D { method x { emit x } }
`)
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := instrument.NewPlan(build, res.Spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Collect one run's worth of (DeltaPath state, PCC value, node).
	dpEnc := instrument.NewEncoder(plan)
	pccEnc := pcc.New(build)
	type sample struct {
		st   *encoding.State
		v    uint64
		node callgraph.NodeID
	}
	var samples []sample
	collect := func(probes minivm.Probes, record func(m minivm.MethodRef)) {
		vm, err := minivm.NewVM(prog, 1)
		if err != nil {
			b.Fatal(err)
		}
		vm.SetProbes(probes)
		vm.SetInstrumented(plan.InstrumentedMethods())
		vm.OnEmit = func(_ *minivm.VM, m minivm.MethodRef, _ string) { record(m) }
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
	collect(dpEnc, func(m minivm.MethodRef) {
		samples = append(samples, sample{st: dpEnc.State().Snapshot(), node: build.NodeOf[m]})
	})
	i := 0
	collect(pccEnc, func(m minivm.MethodRef) {
		samples[i].v = pccEnc.Value()
		i++
	})

	b.Run("deltapath-decode", func(b *testing.B) {
		dec := encoding.Compile(res.Spec)
		for i := 0; i < b.N; i++ {
			s := samples[i%len(samples)]
			if _, err := dec.Decode(s.st, s.node); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("breadcrumbs-search", func(b *testing.B) {
		dec := breadcrumbs.NewDecoder(build)
		for i := 0; i < b.N; i++ {
			s := samples[i%len(samples)]
			cands, _, err := dec.Decode(s.v, s.node, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(cands) == 0 {
				b.Fatal("search found nothing")
			}
		}
	})
}

// BenchmarkAblationProfileGuided measures Section 8's profile-guided
// optimization: after a profiling run, each node's hottest incoming edge is
// processed first and receives addition value 0; without call path
// tracking such sites need no instrumentation at all.
func BenchmarkAblationProfileGuided(b *testing.B) {
	p, _ := workload.ByName("compress")
	prog, err := p.Scale(0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
	if err != nil {
		b.Fatal(err)
	}
	counts, err := instrument.Profile(prog, build, p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	plain, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	guided, err := core.Encode(build.Graph, core.Options{EdgeProfile: counts})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		res  *core.Result
	}{{"unguided", plain}, {"profile-guided", guided}} {
		cfg := cfg
		plan, err := instrument.NewPlan(build, cfg.res.Spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		active := plan.ActiveSites()
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm, err := minivm.NewVM(prog, p.Seed)
				if err != nil {
					b.Fatal(err)
				}
				vm.SetProbes(instrument.NewEncoder(plan))
				vm.SetInstrumented(plan.InstrumentedMethods())
				vm.SetInstrumentedSites(active)
				if err := vm.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plan.NumFreeSites()), "free-sites")
		})
	}
}
