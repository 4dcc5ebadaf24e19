package analysisio

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/workload"
)

// saveGraph analyses g and returns its saved analysis.
func saveGraph(tb testing.TB, g *callgraph.Graph) []byte {
	tb.Helper()
	res, err := core.Encode(g, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res.Spec, cpt.Compute(g)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rootsGraph returns a graph whose entry calls n leaves, each of them a
// context root: a program that spawns n distinct tasks.
func rootsGraph(n int) *callgraph.Graph {
	g := callgraph.New()
	entry := g.AddNode("main", false)
	g.SetEntry(entry)
	for i := 0; i < n; i++ {
		leaf := g.AddNode(fmt.Sprintf("task%d", i), false)
		g.AddEdge(entry, int32(i), leaf)
		g.MarkContextRoot(leaf)
	}
	return g
}

// benchGraphs returns sunflow's graph, built with the settings Analyze
// uses, and the 50k-node huge smoke tier's.
func benchGraphs(b *testing.B) (sunflow, huge *callgraph.Graph) {
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
	huge, err = workload.HugeSmoke(50_000).Build()
	if err != nil {
		b.Fatal(err)
	}
	return build.Graph, huge
}

// BenchmarkLoad times Load on the saved analysis of sunflow, of the
// 50k-node huge smoke tier, and of a graph with 40,000 context roots, which
// Load marks one by one.
func BenchmarkLoad(b *testing.B) {
	sunflow, huge := benchGraphs(b)
	for _, c := range []struct {
		name string
		g    *callgraph.Graph
	}{{"sunflow", sunflow}, {"huge-50k", huge}, {"roots-40k", rootsGraph(40_000)}} {
		data := saveGraph(b, c.g)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSave times Save, spec and call-path-tracking plan, on sunflow
// and on the 50k-node huge smoke tier.
func BenchmarkSave(b *testing.B) {
	sunflow, huge := benchGraphs(b)
	for _, c := range []struct {
		name string
		g    *callgraph.Graph
	}{{"sunflow", sunflow}, {"huge-50k", huge}} {
		res, err := core.Encode(c.g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		plan := cpt.Compute(c.g)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Save(io.Discard, res.Spec, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
