package deltapath

import (
	"runtime"
	"testing"

	"deltapath/internal/minivm"
)

// BenchmarkSessionRun prices whole runs of the Figure 8 programs at the
// scales perfbench's profile-run uses (compress ×2, scimark.fft.large ×2,
// mpegaudio ×6), in three arms over the same VM seed:
//
//   - native: a bare VM, no probes;
//   - noop: a Session whose emit callback does nothing, so the arm adds the
//     encoder's probes and the capture of each context;
//   - profiled: a Session whose callback calls Profile.Add on a fresh
//     Profile per run, as perfbench's profiled arm does.
//
// Each arm reports ns per VM step, so native and instrumented per-step
// costs read side by side, and the session arms report allocations per
// emit, session set-up included.
func BenchmarkSessionRun(b *testing.B) {
	const seed = 1
	for _, w := range []struct {
		name  string
		scale float64
	}{{"compress", 2}, {"scimark.fft.large", 2}, {"mpegaudio", 6}} {
		an := analyzeWorkload(b, w.name, w.scale)
		b.Run(w.name+"/native", func(b *testing.B) {
			var steps uint64
			for i := 0; i < b.N; i++ {
				vm, err := minivm.NewVM(an.prog, seed)
				if err != nil {
					b.Fatal(err)
				}
				if err := vm.Run(); err != nil {
					b.Fatal(err)
				}
				steps += vm.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
		for _, arm := range []string{"noop", "profiled"} {
			b.Run(w.name+"/"+arm, func(b *testing.B) {
				var steps, emits uint64
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := an.NewSession(seed)
					if err != nil {
						b.Fatal(err)
					}
					onEmit := func(Context) { emits++ }
					if arm == "profiled" {
						prof := an.NewProfile(0)
						onEmit = func(c Context) {
							emits++
							prof.Add(c)
						}
					}
					if _, err := s.Run(onEmit); err != nil {
						b.Fatal(err)
					}
					steps += s.VM().Steps
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(emits), "allocs/emit")
			})
		}
	}
}
