package minivm_test

import (
	"testing"

	"deltapath/internal/minivm"
	"deltapath/internal/workload"
)

// BenchmarkNewVM prices VM construction on mpegaudio at the ×6 loop scale
// perfbench's profile-run uses: loading every static class, its methods'
// call-site tables and the dispatch sets. Every Figure 8 arm pays it once
// per run.
func BenchmarkNewVM(b *testing.B) {
	p, ok := workload.ByName("mpegaudio")
	if !ok {
		b.Fatal("missing benchmark mpegaudio")
	}
	prog, err := p.Scale(6).Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minivm.NewVM(prog, 1); err != nil {
			b.Fatal(err)
		}
	}
}
