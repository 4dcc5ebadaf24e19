package core

import (
	"fmt"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/workload"
)

// BenchmarkEncode times Algorithm 2 on sunflow, the suite program whose
// >64-bit space drives the most restarts, and on the 50k-node huge smoke
// tier, both with default options; and on a hub-less lattice at MaxID
// 2^40-1, whose encoding pressure crosses the limit across whole layers, so
// every one of its anchors costs a restart that resumes mid-graph.
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
		opts Options
	}{
		{"sunflow", build.Graph, Options{}},
		{"huge-50k", huge, Options{}},
		{"lattice", lattice(40, 4), Options{MaxID: 1<<40 - 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				if res, err = Encode(c.g, c.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.OverflowAnchors)), "anchors")
			b.ReportMetric(float64(res.Restarts), "restarts")
		})
	}
}

// lattice builds a doubling lattice without hubs: layers of width nodes,
// each called by every node of the previous layer.
func lattice(layers, width int) *callgraph.Graph {
	g := callgraph.New()
	prev := []callgraph.NodeID{g.AddNode("main", false)}
	g.SetEntry(prev[0])
	var label int32
	for layer := 0; layer < layers; layer++ {
		var cur []callgraph.NodeID
		for i := 0; i < width; i++ {
			n := g.AddNode(fmt.Sprintf("L%dN%d", layer, i), false)
			cur = append(cur, n)
			for _, p := range prev {
				g.AddEdge(p, label, n)
				label++
			}
		}
		prev = cur
	}
	return g
}
