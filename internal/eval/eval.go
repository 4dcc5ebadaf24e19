// Package eval reproduces the paper's evaluation (Section 6): Table 1
// (static program characteristics), Figure 8 (execution speed under PCC and
// DeltaPath with and without call path tracking), and Table 2 (dynamic
// program characteristics), over the SPECjvm2008-shaped workload suite.
//
// One deliberate substitution: the paper collects a calling context at the
// entry of every instrumented application function; we collect at the
// workload programs' emit points (the logging/system-call analog). Both
// sample the same distribution of application calling contexts; emits keep
// collection cost out of the throughput measurements.
package eval

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/pcc"
	"deltapath/internal/stackwalk"
	"deltapath/internal/workload"
)

// Table1Cols is one encoding setting's static characteristics.
type Table1Cols struct {
	Nodes, Edges, CS, VCS int
	MaxID                 string // formatted encoding-space requirement
	MaxIDBits             int
	Anchors               int // overflow anchors Algorithm 2 added at 63-bit width
}

// Table1Row is one benchmark's static characteristics under both settings.
type Table1Row struct {
	Program string
	Size    int // program size (bytes of canonical source — the "size" analog)
	All     Table1Cols
	App     Table1Cols
}

// Table1 computes the static characteristics of each benchmark.
func Table1(suite []workload.Params) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(suite))
	for _, p := range suite {
		prog, err := p.Generate()
		if err != nil {
			return nil, err
		}
		row := Table1Row{Program: p.Name, Size: len(prog.String())}
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			build, err := cha.Build(prog, cha.Options{Setting: setting})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			g := build.Graph
			est, bits, err := core.EstimateSpace(g)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			res, err := core.Encode(g, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s: Algorithm 2: %w", p.Name, err)
			}
			cols := Table1Cols{
				Nodes:     g.NumNodes(),
				Edges:     g.NumEdges(),
				CS:        g.NumSites(),
				VCS:       g.NumVirtualSites(),
				MaxID:     core.FormatSpace(est),
				MaxIDBits: bits,
				Anchors:   len(res.OverflowAnchors),
			}
			if setting == cha.EncodingAll {
				row.All = cols
			} else {
				row.App = cols
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Row is one benchmark's normalized execution speed under each
// configuration (1.0 = native, smaller is slower).
type Fig8Row struct {
	Program    string
	PCC        float64
	DeltaNoCPT float64
	DeltaCPT   float64
	// NativeSteps reports raw interpreter throughput (steps/second) for
	// context.
	NativeSteps float64
}

// Figure8 measures normalized execution speed over the suite. scale
// multiplies the workloads' loop trip counts; repeats selects the fastest
// of N runs per configuration (standard practice for throughput medians on
// a noisy machine).
func Figure8(suite []workload.Params, scale float64, repeats int) ([]Fig8Row, error) {
	return Figure8Workers(suite, scale, repeats, 1)
}

// Figure8Workers is Figure8 with SPECjvm2008-style worker threads: each of
// the workers goroutines runs its own VM with its own encoder — the
// encoding state is thread-local, exactly as the paper's implementation
// keeps it (Section 8, "thread-local variables ... for each thread") — and
// the throughput is the aggregate step rate.
func Figure8Workers(suite []workload.Params, scale float64, repeats, workers int) ([]Fig8Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	if workers < 1 {
		workers = 1
	}
	rows := make([]Fig8Row, 0, len(suite))
	for _, p := range suite {
		prog, err := p.Scale(scale).Generate()
		if err != nil {
			return nil, err
		}
		// The paper's Figure 8 uses the encoding-application setting,
		// matching the original PCC's application-only instrumentation.
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
		if err != nil {
			return nil, err
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			return nil, err
		}
		planNoCPT, err := instrument.NewPlan(build, res.Spec, nil)
		if err != nil {
			return nil, err
		}
		planCPT, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
		if err != nil {
			return nil, err
		}
		instrSet := planNoCPT.InstrumentedMethods()

		// once times one run of the worker pool and counts its steps;
		// probes == nil means native. Each worker builds its own encoder
		// from the factory (thread-local state).
		once := func(factory func() minivm.Probes) (float64, uint64, error) {
			vms := make([]*minivm.VM, workers)
			for w := 0; w < workers; w++ {
				vm, err := minivm.NewVM(prog, p.Seed+uint64(w))
				if err != nil {
					return 0, 0, err
				}
				if factory != nil {
					vm.SetProbes(factory())
					vm.SetInstrumented(instrSet)
				}
				vms[w] = vm
			}
			errs := make(chan error, workers)
			// Collect the garbage earlier runs left first, so that no arm
			// pays for another's.
			runtime.GC()
			start := time.Now()
			for _, vm := range vms {
				vm := vm
				go func() { errs <- vm.Run() }()
			}
			for range vms {
				if err := <-errs; err != nil {
					return 0, 0, err
				}
			}
			d := time.Since(start).Seconds()
			var steps uint64
			for _, vm := range vms {
				steps += vm.Steps
			}
			return d, steps, nil
		}

		// The four arms run interleaved within each repeat, starting one
		// arm later each time, so a burst of load from outside lands on
		// one run of one arm rather than on every run of it; each arm keeps
		// its fastest run. speed is aggregate steps/second.
		arms := []struct {
			name    string
			factory func() minivm.Probes
		}{
			{"native", nil},
			{"pcc", func() minivm.Probes { return pcc.New(build) }},
			{"deltapath", func() minivm.Probes { return instrument.NewEncoder(planNoCPT) }},
			{"deltapath+cpt", func() minivm.Probes { return instrument.NewEncoder(planCPT) }},
		}
		best := []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		steps := make([]uint64, len(arms))
		for i := 0; i < repeats; i++ {
			for k := range arms {
				a := (i + k) % len(arms)
				d, n, err := once(arms[a].factory)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", p.Name, arms[a].name, err)
				}
				best[a], steps[a] = min(best[a], d), n
			}
		}
		speed := func(a int) float64 { return float64(steps[a]) / best[a] }
		native := speed(0)
		rows = append(rows, Fig8Row{
			Program:     p.Name,
			PCC:         speed(1) / native,
			DeltaNoCPT:  speed(2) / native,
			DeltaCPT:    speed(3) / native,
			NativeSteps: native,
		})
	}
	return rows, nil
}

// GeoMean returns the geometric mean of a selector over rows (the paper
// reports average slowdowns as geometric means).
func GeoMean(rows []Fig8Row, sel func(Fig8Row) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Log(sel(r))
	}
	return math.Exp(sum / float64(len(rows)))
}

// Table2Row is one benchmark's dynamic characteristics.
type Table2Row struct {
	Program       string
	TotalContexts uint64
	MaxDepth      int
	AvgDepth      float64
	UniqueTrue    int // ground truth (stack walking)
	UniquePCC     int // PCC loses some to hash collisions
	UniqueDelta   int // DeltaPath encodings (must equal UniqueTrue)
	MaxStack      int
	AvgStack      float64
	MaxUCP        int
	AvgUCP        float64
	MaxID         uint64
	DecodeErrors  int // decode-verified sample failures (must be 0)
}

// Table2 runs each benchmark twice with identical seeds — once under PCC,
// once under DeltaPath with call path tracking — collecting context
// statistics at emit points. Every 64th DeltaPath context is decoded and
// compared against the ground-truth stack as an online correctness audit.
func Table2(suite []workload.Params, scale float64) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(suite))
	for _, p := range suite {
		prog, err := p.Scale(scale).Generate()
		if err != nil {
			return nil, err
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
		if err != nil {
			return nil, err
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			return nil, err
		}
		plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
		if err != nil {
			return nil, err
		}
		row := Table2Row{Program: p.Name}

		// Pass 1: PCC.
		pccEnc := pcc.New(build)
		vm, err := minivm.NewVM(prog, p.Seed)
		if err != nil {
			return nil, err
		}
		vm.SetProbes(pccEnc)
		vm.SetInstrumented(plan.InstrumentedMethods())
		// As in the original PCC, a calling context is identified by the
		// value V together with the query point (the querying code knows
		// where it is), so uniqueness is per (V, method).
		type pccKey struct {
			v uint64
			m minivm.MethodRef
		}
		pccSeen := make(map[pccKey]struct{})
		vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
			if _, known := build.NodeOf[m]; known {
				pccSeen[pccKey{pccEnc.Value(), m}] = struct{}{}
			}
		}
		if err := vm.Run(); err != nil {
			return nil, fmt.Errorf("%s pcc pass: %w", p.Name, err)
		}
		row.UniquePCC = len(pccSeen)

		// Pass 2: DeltaPath with CPT, plus ground truth.
		enc := instrument.NewEncoder(plan)
		vm, err = minivm.NewVM(prog, p.Seed)
		if err != nil {
			return nil, err
		}
		vm.SetProbes(enc)
		vm.SetInstrumented(plan.InstrumentedMethods())
		walker := &stackwalk.Walker{Filter: plan.InstrumentedMethods()}
		dec := encoding.Compile(res.Spec)
		dpSeen := make(map[string]struct{})
		trueSeen := make(map[string]struct{})
		var totalDepth, totalStack, totalUCP uint64
		vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
			node, known := build.NodeOf[m]
			if !known {
				return // context query inside unanalysed code
			}
			row.TotalContexts++
			ctx := walker.Capture(v)
			d := len(ctx)
			totalDepth += uint64(d)
			if d > row.MaxDepth {
				row.MaxDepth = d
			}
			trueSeen[stackwalk.Key(ctx)] = struct{}{}

			st := enc.State()
			dpSeen[st.Key(node)] = struct{}{}
			if sd := st.Depth(); sd > row.MaxStack {
				row.MaxStack = sd
			}
			totalStack += uint64(st.Depth())
			u := st.UCPCount()
			totalUCP += uint64(u)
			if u > row.MaxUCP {
				row.MaxUCP = u
			}
			if st.ID > row.MaxID {
				row.MaxID = st.ID
			}
			if row.TotalContexts%64 == 1 {
				snap := st.Snapshot()
				names, err := dec.DecodeNames(snap, node)
				if err != nil {
					row.DecodeErrors++
					return
				}
				i := 0
				for _, n := range names {
					if n == "..." {
						continue
					}
					if i >= len(ctx) || n != ctx[i].String() {
						row.DecodeErrors++
						return
					}
					i++
				}
				if i != len(ctx) {
					row.DecodeErrors++
				}
			}
		}
		if err := vm.Run(); err != nil {
			return nil, fmt.Errorf("%s deltapath pass: %w", p.Name, err)
		}
		row.UniqueDelta = len(dpSeen)
		row.UniqueTrue = len(trueSeen)
		if row.TotalContexts > 0 {
			row.AvgDepth = float64(totalDepth) / float64(row.TotalContexts)
			row.AvgStack = float64(totalStack) / float64(row.TotalContexts)
			row.AvgUCP = float64(totalUCP) / float64(row.TotalContexts)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DecodeRow reports decode throughput for one benchmark: the quantitative
// backing for the paper's "deterministic and instant decoding" claim
// (contrast Breadcrumbs' 5-second-per-context offline search), measured
// through both data paths — the legacy map-based reference decoder and the
// compiled flat tables (encoding.Compile). Speedup is the machine-independent
// metric the bench-smoke gate compares; absolute ns/context is recorded for
// the record but never gated (1-CPU container noise).
type DecodeRow struct {
	Program      string
	Contexts     int     // distinct contexts timed
	LegacyNs     float64 // best-of-repeats mean ns/context, legacy map decoder
	CompiledNs   float64 // same contexts through the compiled flat tables
	Speedup      float64 // LegacyNs / CompiledNs
	FramesPerSec float64 // compiled-path frame throughput at CompiledNs
	AllocsPerOp  float64 // compiled steady-state heap allocations per decode
	MaxDepth     int     // deepest decoded context
}

// DecodeLatency collects up to sample distinct contexts per benchmark and
// times their decoding through both decoders, keeping the best of repeats
// timed batches per side.
func DecodeLatency(suite []workload.Params, scale float64, sample, repeats int) ([]DecodeRow, error) {
	if sample <= 0 {
		sample = 2048
	}
	if repeats < 1 {
		repeats = 1
	}
	rows := make([]DecodeRow, 0, len(suite))
	for _, p := range suite {
		prog, err := p.Scale(scale).Generate()
		if err != nil {
			return nil, err
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
		if err != nil {
			return nil, err
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			return nil, err
		}
		plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
		if err != nil {
			return nil, err
		}
		enc := instrument.NewEncoder(plan)
		vm, err := minivm.NewVM(prog, p.Seed)
		if err != nil {
			return nil, err
		}
		vm.SetProbes(enc)
		vm.SetInstrumented(plan.InstrumentedMethods())
		type sampleRec struct {
			st   *encoding.State
			node callgraph.NodeID
		}
		var samples []sampleRec
		seen := make(map[string]bool)
		vm.OnEmit = func(_ *minivm.VM, m minivm.MethodRef, _ string) {
			if len(samples) >= sample {
				return
			}
			node, known := build.NodeOf[m]
			if !known {
				return
			}
			key := enc.State().Key(node)
			if seen[key] {
				return
			}
			seen[key] = true
			samples = append(samples, sampleRec{st: enc.State().Snapshot(), node: node})
		}
		if err := vm.Run(); err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("%s: no contexts sampled", p.Name)
		}
		legacy := encoding.NewDecoder(res.Spec)
		compiled := encoding.Compile(res.Spec)
		row := DecodeRow{Program: p.Name, Contexts: len(samples)}
		// Warm both paths once (legacy memo caches, compiled scratch pool
		// and frame buffer), collecting depth and frame totals from the
		// warm pass so the timed batches are measurement only.
		var buf []encoding.Frame
		totalFrames := 0
		for _, s := range samples {
			frames, err := legacy.Decode(s.st, s.node)
			if err != nil {
				return nil, fmt.Errorf("%s: decode: %w", p.Name, err)
			}
			if len(frames) > row.MaxDepth {
				row.MaxDepth = len(frames)
			}
			totalFrames += len(frames)
			if buf, err = compiled.DecodeInto(buf[:0], s.st, s.node); err != nil {
				return nil, fmt.Errorf("%s: compiled decode: %w", p.Name, err)
			}
			if len(buf) != len(frames) {
				return nil, fmt.Errorf("%s: decoder disagreement: legacy %d frames, compiled %d",
					p.Name, len(frames), len(buf))
			}
		}
		n := float64(len(samples))
		for r := 0; r < repeats; r++ {
			start := time.Now()
			for _, s := range samples {
				if _, err := legacy.Decode(s.st, s.node); err != nil {
					return nil, err
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / n; row.LegacyNs == 0 || ns < row.LegacyNs {
				row.LegacyNs = ns
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start = time.Now()
			for _, s := range samples {
				if buf, err = compiled.DecodeInto(buf[:0], s.st, s.node); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if ns := float64(elapsed.Nanoseconds()) / n; row.CompiledNs == 0 || ns < row.CompiledNs {
				row.CompiledNs = ns
			}
			if allocs := float64(after.Mallocs-before.Mallocs) / n; r == 0 || allocs < row.AllocsPerOp {
				row.AllocsPerOp = allocs
			}
		}
		if row.CompiledNs > 0 {
			row.Speedup = row.LegacyNs / row.CompiledNs
			row.FramesPerSec = float64(totalFrames) / n / row.CompiledNs * 1e9
		}
		rows = append(rows, row)
	}
	return rows, nil
}
