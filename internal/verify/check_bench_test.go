package verify

import (
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/workload"
)

// suiteSpec runs the analysis pipeline over a generated suite program with
// the settings Analyze uses (encoding-all, unreachable methods kept).
func suiteSpec(tb testing.TB, name string) (*encoding.Spec, *cpt.Plan) {
	tb.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("missing benchmark %s", name)
	}
	prog, err := p.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
	if err != nil {
		tb.Fatal(err)
	}
	return encodeGraph(tb, build.Graph)
}

// hugeSpec analyzes the huge smoke tier at the given node count.
func hugeSpec(tb testing.TB, nodes int) (*encoding.Spec, *cpt.Plan) {
	tb.Helper()
	g, err := workload.HugeSmoke(nodes).Build()
	if err != nil {
		tb.Fatal(err)
	}
	return encodeGraph(tb, g)
}

func encodeGraph(tb testing.TB, g *callgraph.Graph) (*encoding.Spec, *cpt.Plan) {
	tb.Helper()
	res, err := core.Encode(g, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Spec, cpt.Compute(g)
}

// BenchmarkCheck times a full verification with default options on sunflow,
// the suite program with the most piece starts, and on the 50k-node huge
// smoke tier.
func BenchmarkCheck(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (*encoding.Spec, *cpt.Plan)
	}{
		{"sunflow", func() (*encoding.Spec, *cpt.Plan) { return suiteSpec(b, "sunflow") }},
		{"huge-50k", func() (*encoding.Spec, *cpt.Plan) { return hugeSpec(b, 50_000) }},
	} {
		spec, plan := c.build()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := Check(spec, plan, Options{}); !rep.Clean() {
					b.Fatalf("findings:\n%s", rep.Text())
				}
			}
		})
	}
}
