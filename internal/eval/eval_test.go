package eval

import (
	"strings"
	"testing"

	"deltapath/internal/workload"
)

// smallSuite picks three benchmarks spanning the interesting regimes:
// a small one, a >64-bit one (anchors), and one with a big application.
func smallSuite(t *testing.T) []workload.Params {
	t.Helper()
	var out []workload.Params
	for _, name := range []string{"compress", "xml.validation", "sunflow"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, p)
	}
	return out
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(smallSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// compress: modest space, no anchors, small app graph.
	c := byName["compress"]
	if c.All.Anchors != 0 {
		t.Errorf("compress needed %d anchors", c.All.Anchors)
	}
	if c.All.MaxIDBits >= 63 || c.All.MaxIDBits < 14 {
		t.Errorf("compress space = %d bits, want mid-range", c.All.MaxIDBits)
	}
	if c.App.Nodes >= c.All.Nodes/5 {
		t.Errorf("compress app graph not much smaller: %d vs %d", c.App.Nodes, c.All.Nodes)
	}
	// The two >64-bit programs of Table 1 require anchors under
	// encoding-all; their application setting must not.
	for _, name := range []string{"xml.validation", "sunflow"} {
		r := byName[name]
		if r.All.MaxIDBits <= 64 {
			t.Errorf("%s space = %d bits, want >64 (Table 1 bold)", name, r.All.MaxIDBits)
		}
		if r.All.Anchors == 0 {
			t.Errorf("%s: no anchors added despite >64-bit space", name)
		}
		if r.App.Anchors != 0 {
			t.Errorf("%s: application setting needed %d anchors", name, r.App.Anchors)
		}
		t.Logf("%s: space=%s anchors=%d", name, r.All.MaxID, r.All.Anchors)
	}
}

func TestFigure8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is slow")
	}
	rows, err := Figure8(smallSuite(t), 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: pcc=%.3f dp=%.3f dp+cpt=%.3f (native %.0f steps/s)",
			r.Program, r.PCC, r.DeltaNoCPT, r.DeltaCPT, r.NativeSteps)
		// All instrumented configurations are slower than native but
		// must not be catastrophically slow. Wide bounds: these are
		// short runs on a shared machine, so per-benchmark numbers are
		// noisy; the real measurement lives in cmd/dpbench at full
		// scale.
		for _, v := range []float64{r.PCC, r.DeltaNoCPT, r.DeltaCPT} {
			if v <= 0.05 || v > 1.6 {
				t.Errorf("%s: normalized speed %.3f out of plausible range", r.Program, v)
			}
		}
	}
	g := GeoMean(rows, func(r Fig8Row) float64 { return r.DeltaNoCPT })
	if g <= 0 || g > 1.5 {
		t.Errorf("geometric mean %.3f implausible", g)
	}
	// On average, CPT must not be faster than plain DeltaPath beyond
	// measurement noise.
	gc := GeoMean(rows, func(r Fig8Row) float64 { return r.DeltaCPT })
	if gc > g*1.25 {
		t.Errorf("CPT geomean %.3f implausibly faster than no-CPT %.3f", gc, g)
	}
}

func TestTable2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("collection run is slow")
	}
	rows, err := Table2(smallSuite(t), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: total=%d depth=%d/%.1f uniq true/pcc/dp=%d/%d/%d stack=%d/%.1f ucp=%d/%.2f maxID=%d",
			r.Program, r.TotalContexts, r.MaxDepth, r.AvgDepth,
			r.UniqueTrue, r.UniquePCC, r.UniqueDelta,
			r.MaxStack, r.AvgStack, r.MaxUCP, r.AvgUCP, r.MaxID)
		if r.DecodeErrors != 0 {
			t.Errorf("%s: %d decode errors", r.Program, r.DecodeErrors)
		}
		if r.TotalContexts == 0 {
			t.Errorf("%s: no contexts collected", r.Program)
		}
		// DeltaPath never loses contexts: its unique encodings are at
		// least the ground-truth count (site-level granularity can only
		// add distinctions), while PCC may lose some to collisions.
		if r.UniqueDelta < r.UniqueTrue {
			t.Errorf("%s: DeltaPath unique %d < ground truth %d",
				r.Program, r.UniqueDelta, r.UniqueTrue)
		}
		if r.UniquePCC > r.UniqueDelta {
			t.Errorf("%s: PCC unique %d > DeltaPath %d", r.Program, r.UniquePCC, r.UniqueDelta)
		}
		// The encoding stack stays shallower than the context depth
		// (small slack absorbs tiny-run noise; the full-scale gap is
		// reported in EXPERIMENTS.md).
		if r.AvgStack > r.AvgDepth+0.5 {
			t.Errorf("%s: avg stack %.1f deeper than avg context %.1f",
				r.Program, r.AvgStack, r.AvgDepth)
		}
		// Dynamic classes are loaded, so hazardous UCPs must appear.
		if r.MaxUCP == 0 {
			t.Errorf("%s: no hazardous UCPs detected", r.Program)
		}
	}
}

func TestFigure8WorkersParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is slow")
	}
	p, _ := workload.ByName("compress")
	rows, err := Figure8Workers([]workload.Params{p}, 0.05, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("4 workers: pcc=%.3f dp=%.3f cpt=%.3f native=%.0f steps/s",
		r.PCC, r.DeltaNoCPT, r.DeltaCPT, r.NativeSteps)
	for _, v := range []float64{r.PCC, r.DeltaNoCPT, r.DeltaCPT} {
		if v <= 0.05 || v > 1.8 {
			t.Errorf("normalized speed %.3f implausible", v)
		}
	}
}

func TestDecodeLatency(t *testing.T) {
	p, _ := workload.ByName("compress")
	rows, err := DecodeLatency([]workload.Params{p}, 0.1, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Contexts == 0 || r.CompiledNs <= 0 || r.FramesPerSec <= 0 {
		t.Fatalf("implausible decode row: %+v", r)
	}
	// "Instant decoding": the compiled path must stay far under a
	// millisecond per context on these graphs.
	if r.CompiledNs > 10_000_000 {
		t.Fatalf("compiled decode took %.0f ns/context; not instant", r.CompiledNs)
	}
	// The allocation-free claim: the best timed batch must see (nearly) no
	// heap allocations per decode. Allow slack for incidental runtime
	// allocations outside the decoder (GC bookkeeping on a busy box), and
	// skip the bound entirely under -race, where sync.Pool intentionally
	// drops items and every decode re-allocates its scratch.
	if r.AllocsPerOp > 1 && !raceEnabled {
		t.Fatalf("compiled decode allocated %.2f objects/op; expected ~0", r.AllocsPerOp)
	}
	out := RenderDecodeLatency(rows)
	if !strings.Contains(out, "compress") {
		t.Fatalf("render missing program:\n%s", out)
	}
}
