package deltapath

import (
	"runtime"
	"testing"

	"deltapath/internal/workload"
)

// analyzeWorkload generates the named suite program at scale and analyses
// it with Analyze defaults.
func analyzeWorkload(tb testing.TB, name string, scale float64) *Analysis {
	tb.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("no suite program %q", name)
	}
	prog, err := p.Scale(scale).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	an, err := Analyze(prog, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return an
}

// TestProfileAddInternedAllocatesNothing: Profile.Add marshals into a stack
// buffer, and the store copies a key only when it interns a new one, so
// adding a context the profile already holds allocates nothing.
func TestProfileAddInternedAllocatesNothing(t *testing.T) {
	an := loadAnalysis(t, "testdata/recursion.mv")
	contexts, err := an.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof := an.NewProfile(0)
	deepest := contexts[0]
	for _, c := range contexts {
		if c.known && c.StackDepth() >= deepest.StackDepth() {
			deepest = c
		}
		prof.Add(c)
	}
	if deepest.StackDepth() < 2 {
		t.Fatalf("no context with a piece stack (deepest %d pieces)", deepest.StackDepth())
	}
	for _, c := range []Context{contexts[0], deepest} {
		if allocs := testing.AllocsPerRun(100, func() { prof.Add(c) }); allocs != 0 {
			t.Errorf("Add of an interned %d-piece context: %.2f allocs, want 0", c.StackDepth(), allocs)
		}
	}
}

// TestSessionEmitAllocations: in steady state an emit allocates only when
// the capture slab needs a new chunk, far less than once per emit. The run
// is compress, whose emits carry piece stacks, measured on a second session
// so one-time set-up stays out.
func TestSessionEmitAllocations(t *testing.T) {
	an := analyzeWorkload(t, "compress", 0.25)
	measure := func() (mallocs, emits, pieces uint64) {
		s, err := an.NewSession(3)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = s.Run(func(c Context) {
			emits++
			pieces += uint64(c.StackDepth() - 1)
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, emits, pieces
	}
	measure()
	mallocs, emits, pieces := measure()
	if emits < 1000 || pieces == 0 {
		t.Fatalf("%d emits carrying %d pieces: too few to measure a steady state", emits, pieces)
	}
	per := float64(mallocs) / float64(emits)
	t.Logf("%d allocations over %d emits (%d pieces) = %.4f per emit", mallocs, emits, pieces, per)
	if per >= 0.05 {
		t.Errorf("%.3f allocations per emit, want < 0.05", per)
	}
}
