package core

import (
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/workload"
)

// BenchmarkEncode times Algorithm 2 with default options on sunflow, the
// suite program whose >64-bit space drives the most restarts, and on the
// 50k-node huge smoke tier.
func BenchmarkEncode(b *testing.B) {
	p, ok := workload.ByName("sunflow")
	if !ok {
		b.Fatal("missing benchmark sunflow")
	}
	prog, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
	if err != nil {
		b.Fatal(err)
	}
	huge, err := workload.HugeSmoke(50_000).Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *callgraph.Graph
	}{{"sunflow", build.Graph}, {"huge-50k", huge}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(c.g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
