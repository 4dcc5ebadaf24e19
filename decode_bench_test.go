// Decode-path benchmarks: the compiled decoder on sampled context sets, the
// cost of compiling its flat tables, plus the encoder's per-event cost on
// the dense probe ids. `dpbench -experiment decode` measures decode
// throughput end to end; these go-bench forms are the developer-loop
// spelling.
package deltapath

import (
	"os"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/workload"
)

// benchContext is one sampled decode input.
type benchContext struct {
	st  *encoding.State
	end callgraph.NodeID
}

// collectDecodeContexts analyzes a corpus program and gathers its distinct
// emitted contexts across a few dispatch seeds.
func collectDecodeContexts(b *testing.B, file string) (*Analysis, []benchContext) {
	b.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ParseProgram(string(src))
	if err != nil {
		b.Fatal(err)
	}
	an, err := Analyze(prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	seen := make(map[string]bool)
	var ctxs []benchContext
	for seed := uint64(0); seed < 4; seed++ {
		contexts, err := an.Run(seed, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range contexts {
			if !c.known || seen[c.Key()] {
				continue
			}
			seen[c.Key()] = true
			ctxs = append(ctxs, benchContext{st: &c.state, end: c.node})
		}
	}
	if len(ctxs) == 0 {
		b.Fatal("no contexts collected")
	}
	return an, ctxs
}

// BenchmarkDecodeCompiled measures the compiled flat-table decoder through
// the allocation-free DecodeInto batch loop, on recursion.mv's contexts and
// on dynload.mv's, which include UCP pieces starting at nodes without a
// compiled territory row (the warm-up pass publishes theirs).
func BenchmarkDecodeCompiled(b *testing.B) {
	for _, name := range []string{"recursion", "dynload"} {
		b.Run(name, func(b *testing.B) {
			an, ctxs := collectDecodeContexts(b, "testdata/"+name+".mv")
			dec := an.epoch().decoder
			var buf []encoding.Frame
			var err error
			for _, c := range ctxs { // warm the scratch pool, buffer and rows
				if buf, err = dec.DecodeInto(buf, c.st, c.end); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range ctxs {
					if buf, err = dec.DecodeInto(buf, c.st, c.end); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(ctxs))), "ns/context")
		})
	}
}

// compiledSink keeps BenchmarkCompile's result live.
var compiledSink *encoding.CompiledDecoder

// BenchmarkCompile times encoding.Compile — the in-rows plus the territory
// rows of the statically known piece starts — on three suite programs and
// the 50k-node huge smoke tier.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"mpegaudio", "crypto.rsa", "sunflow", "huge-50k"} {
		spec := compileBenchSpec(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compiledSink = encoding.Compile(spec)
			}
		})
	}
}

// compileBenchSpec encodes a suite program's graph (the settings Analyze
// uses) or, for "huge-50k", the 50k-node huge smoke tier.
func compileBenchSpec(b *testing.B, name string) *encoding.Spec {
	b.Helper()
	var g *callgraph.Graph
	if name == "huge-50k" {
		var err error
		if g, err = workload.HugeSmoke(50_000).Build(); err != nil {
			b.Fatal(err)
		}
	} else {
		p, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("missing benchmark %s", name)
		}
		prog, err := p.Generate()
		if err != nil {
			b.Fatal(err)
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
		if err != nil {
			b.Fatal(err)
		}
		g = build.Graph
	}
	res, err := core.Encode(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Spec
}

// BenchmarkEncoderEvent measures the encoder's per-event cost on the dense
// ids the VM resolves through the plan.
func BenchmarkEncoderEvent(b *testing.B) {
	plan, stream := recordEventStream(b, "compress", 0.02)
	b.Run("dense", func(b *testing.B) {
		enc := instrument.NewEncoder(plan)
		tokens := make([]uint8, 0, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			tokens = replayStream(enc, stream, tokens)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(stream.events))), "ns/event")
	})
}
