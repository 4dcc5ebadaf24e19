// Command dpbench regenerates the paper's evaluation: Table 1 (static
// program characteristics), Figure 8 (normalized execution speed of PCC
// versus DeltaPath with and without call path tracking), and Table 2
// (dynamic program characteristics), over the fifteen synthetic
// SPECjvm2008-shaped benchmarks.
//
// Beyond the paper's tables, the profile experiment measures the concurrent
// profile pipeline: intern throughput of the sharded context store at 1, 2,
// 4, and 8 workers over a corpus collected from the suite (fixed total
// work, so the speedup column is the classic scaling ratio).
//
// Usage:
//
//	dpbench -experiment table1|fig8|table2|decode|profile|encode|graph|extend|ingest|all
//	        [-scale 0.2] [-repeats 3] [-workers 1]
//	        [-bench compress,sunflow] [-json]
//	dpbench -experiment scale [-scale 1.0] [-workers 4] [-json]
//	dpbench -compare results/BENCH_0003.json [-tolerance 0.25] [-repeats 3]
//
// Scale multiplies workload loop-trip counts: 1.0 is the full configured
// run (minutes), 0.1 a quick pass. -experiment accepts a comma-separated
// list. -bench restricts to a comma-separated subset of benchmark names.
// -json emits one machine-readable JSON document holding every requested
// experiment plus a meta block (CPU count, GOOS, GOARCH, benchmark subset,
// and — when the encode experiment ran — the aggregated observability
// metrics) instead of the formatted tables.
//
// The graph experiment compares CHA against RTA call-graph construction
// (nodes, edges, targets per site, anchors, encoding bits, and the CHA−RTA
// deltas) over the suite plus the curated programs matched by -mv
// (default examples/*.mv — the generated suite has no dead code, so the
// curated programs carry the precision witnesses).
//
// The decode experiment measures offline decode throughput through the
// compiled flat tables (encoding.Compile): ns/context, frames/s, and
// steady-state allocations per decode (expected 0).
//
// The scale experiment sweeps the huge-graph scalability tiers
// (workload.HugeTiers, 10⁵–10⁶ nodes at -scale 1.0): per tier it measures
// analysis latency, spec-compile latency, the analysis memory budget (peak
// bytes, bytes/node), and compiled decode ns/context, while proving two
// independent analyses byte-identical and running the soundness verifier
// serially and on -workers workers. It is opt-in — excluded from
// -experiment all — because the top tier allocates gigabytes.
//
// The extend experiment measures incremental encoding (Analysis.Extend):
// per absorbed dynamic class, the delta-analysis latency against the
// whole-program re-analysis it replaces, how much of the graph the delta
// dirtied, and fresh-session hazard pushes before and after the absorption
// — the steady-state run-time rent an unanalysed class charges.
//
// The ingest experiment measures dprofiled's write fast path: for 1, 4,
// and 8 concurrent agents pushing to one tenant over HTTP, the acked-batch
// throughput and ack-latency quantiles under the group-commit WAL versus
// per-batch fsync, plus the fsyncs each policy issued. The gated metric is
// the group/per-batch throughput ratio at each agent count.
//
// The encode experiment measures the observability layer's hot-path cost:
// whole-run ns per probe event with metrics off (the nil-sink default) and
// on. -compare is the bench-smoke regression gate built on that output: it
// re-measures the experiments recorded in a baseline -json document (see
// compare.go for the gated metrics and the 1-CPU caveat) and exits 1 on
// any metric more than -tolerance worse than the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"deltapath/internal/eval"
	"deltapath/internal/lang"
	"deltapath/internal/obs"
	"deltapath/internal/workload"
)

// loadPrograms parses every .mv program the glob matches, named by base
// filename. A glob matching nothing is not an error — the graph experiment
// then runs over the generated suite alone.
func loadPrograms(glob string) ([]eval.NamedProgram, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("-mv %q: %w", glob, err)
	}
	var out []eval.NamedProgram
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, eval.NamedProgram{Name: filepath.Base(p), Prog: prog})
	}
	return out, nil
}

func main() {
	experiment := flag.String("experiment", "all", "comma-separated subset of table1, fig8, table2, decode, profile, encode, graph, extend, ingest; or all; scale is opt-in (huge graphs)")
	scale := flag.Float64("scale", 0.2, "workload scale factor (1.0 = full runs)")
	repeats := flag.Int("repeats", 3, "throughput repetitions per configuration (fig8, decode, encode, -compare)")
	workers := flag.Int("workers", 1, "concurrent benchmark worker threads (fig8)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 15)")
	asJSON := flag.Bool("json", false, "emit JSON rows instead of formatted tables")
	compare := flag.String("compare", "", "baseline -json document to regression-gate against (see results/BENCH_*.json)")
	tolerance := flag.Float64("tolerance", 0.25, "with -compare: allowed relative regression per metric")
	mvGlob := flag.String("mv", "examples/*.mv", "glob of curated .mv programs the graph experiment adds to the suite")
	flag.Parse()

	if *compare != "" {
		runCompare(*compare, *tolerance, *repeats)
		return
	}

	suite := workload.Suite()
	if *benchList != "" {
		var filtered []workload.Params
		for _, name := range strings.Split(*benchList, ",") {
			p, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "dpbench: unknown benchmark %q\n", name)
				os.Exit(2)
			}
			filtered = append(filtered, p)
		}
		suite = filtered
	}

	wanted := make(map[string]bool)
	for _, name := range strings.Split(*experiment, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	run := func(name string, f func() error) {
		if !wanted["all"] && !wanted[name] {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	// With -json, every experiment accumulates into one document so the
	// output is a single valid JSON object regardless of -experiment.
	doc := map[string]any{}
	emit := func(name string, rows any, rendered string) error {
		if !*asJSON {
			fmt.Println(rendered)
			return nil
		}
		doc[name] = rows
		return nil
	}

	run("table1", func() error {
		rows, err := eval.Table1(suite)
		if err != nil {
			return err
		}
		return emit("table1", rows, eval.RenderTable1(rows))
	})
	run("fig8", func() error {
		rows, err := eval.Figure8Workers(suite, *scale, *repeats, *workers)
		if err != nil {
			return err
		}
		return emit("fig8", rows, eval.RenderFigure8(rows))
	})
	run("table2", func() error {
		rows, err := eval.Table2(suite, *scale)
		if err != nil {
			return err
		}
		return emit("table2", rows, eval.RenderTable2(rows))
	})
	run("decode", func() error {
		rows, err := eval.DecodeLatency(suite, *scale, 2048, *repeats)
		if err != nil {
			return err
		}
		return emit("decode", rows, eval.RenderDecodeLatency(rows))
	})
	run("profile", func() error {
		rows, err := eval.ProfileThroughput(suite, *scale, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		return emit("profile", rows, eval.RenderProfile(rows))
	})
	// The generated workload suite alone cannot show a CHA-vs-RTA delta —
	// its coverage pass makes every generated method reachable — so the
	// graph experiment folds in the curated example programs, which carry
	// dead spawns and dynamic-only call paths on purpose.
	run("graph", func() error {
		extra, err := loadPrograms(*mvGlob)
		if err != nil {
			return err
		}
		rows, err := eval.GraphPrecision(suite, extra)
		if err != nil {
			return err
		}
		return emit("graph", rows, eval.RenderGraph(rows))
	})
	// The ingest experiment boots real dprofiled servers over temp durable
	// state, so its absolute numbers are storage-bound; the gated metric is
	// the group-commit/per-batch throughput ratio.
	run("ingest", func() error {
		rows, err := eval.IngestThroughput(*scale, *repeats, []int{1, 4, 8})
		if err != nil {
			return err
		}
		return emit("ingest", rows, eval.RenderIngest(rows))
	})
	// The extend experiment needs programs with dynamic classes: the
	// built-in corpus plus any -mv programs that declare them.
	run("extend", func() error {
		extra, err := loadPrograms(*mvGlob)
		if err != nil {
			return err
		}
		rows, err := eval.ExtendLatency(extra)
		if err != nil {
			return err
		}
		return emit("extend", rows, eval.RenderExtend(rows))
	})
	// The scale experiment sweeps the huge-graph tiers (workload.HugeTiers):
	// at -scale 1.0 the top tier is a million-node, multi-million-edge
	// graph, so it is opt-in — never part of -experiment all. -scale
	// multiplies the tier node counts; -workers sets the verifier's worker
	// count (minimum 2, so the parallel proof always runs and is proven
	// byte-identical to the serial one).
	if wanted["scale"] {
		scaleWorkers := *workers
		if scaleWorkers < 2 {
			scaleWorkers = 2
		}
		rows, err := eval.ScaleCurve(workload.HugeTiers(*scale), scaleWorkers, 256)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: scale: %v\n", err)
			os.Exit(1)
		}
		failed := false
		for _, r := range rows {
			if !r.Identical || !r.VerifyClean || !r.VerifyIdentical {
				failed = true
			}
		}
		if err := emit("scale", rows, eval.RenderScale(rows)); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: scale: %v\n", err)
			os.Exit(1)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "dpbench: scale: analysis divergence or verification finding (see rows)")
			os.Exit(1)
		}
	}

	// The encode experiment's metrics-on runs aggregate into reg, which
	// -json surfaces as meta.metrics — the observability layer observing
	// its own benchmark.
	reg := obs.NewRegistry()
	run("encode", func() error {
		rows, err := eval.EncodeOverhead(suite, *scale, *repeats, reg)
		if err != nil {
			return err
		}
		return emit("encode", rows, eval.RenderEncode(rows))
	})

	if *asJSON {
		names := make([]string, 0, len(suite))
		for _, p := range suite {
			names = append(names, p.Name)
		}
		meta := map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"scale":      *scale,
			"bench":      names,
		}
		if metrics := reg.Snapshot(); len(metrics) > 0 {
			meta["metrics"] = metrics
		}
		doc["meta"] = meta
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}
