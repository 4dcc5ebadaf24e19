// Command perfbench is the repository benchmark. It drives the three
// stages a DeltaPath user pays for — the offline analysis (analyze), the
// instrumented run (profile-run) and the fleet ingest service
// (ingest-query) — through the exported entry points only, checks every
// output, and prints one JSON result line.
//
// Every invocation measures all three stages, so every end-to-end metric
// is reported on every workload. Each stage is set up a few times (setup_s
// sums the stages' median set-up times); then three cycles each run one
// analyze round and one part of profile-run and of ingest-query, in the
// order the workload names (see executeTimed). With --trace 1 the same
// stages run with a fixed amount of work, once untraced and once with
// spans and the program's own counters on, and the per-layer metrics are
// reported instead.
//
// Build and run it from the repository root with run.sh, which builds the
// binary inside the checkout:
//
//	bash perfbench/run.sh --workload profile-run --seed 1 --seconds 32 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Stage names.
const (
	wProfile = "profile-run"
	wAnalyze = "analyze"
	wIngest  = "ingest-query"
)

// stages in the order they run after the workload's own within a cycle.
var stages = []string{wProfile, wAnalyze, wIngest}

// workloads are the stages a cycle can start with. The ingest stage runs
// in every invocation but is not a workload of its own: a third workload
// would make every set of runs half again as long while measuring nothing
// the other two do not (see RATIONALE.md).
var workloads = []string{wProfile, wAnalyze}

// share is the part of the --seconds window that profile-run and
// ingest-query are timed for. Analyze runs one round a cycle, which takes
// about the rest of the window.
var share = map[string]float64{wProfile: 0.18, wIngest: 0.27}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fault seeds one defect into a workload's checked outputs. The tests of
// the checks use it to show that each check can fail; a benchmark run
// never sets it.
type fault int

const (
	noFault fault = iota
	faultFlipRecord
	faultTamperDPA
	faultDropAcked
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // timed window of the run, shared among the stages
	trace    bool
	out      string // run artefacts: ingest data directories, trace files
	sz       sizes
	fault    fault
}

// run accumulates one invocation's accounting and metrics.
type run struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// op counts one attempted operation, failed when err is non-nil.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var cfg config
	var seed uint64
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", wProfile, "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 32, "timed window of the run, in seconds, shared among the stages")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for run artefacts")
	flag.Parse()
	cfg.seed = seed
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.sz = fullSizes()
	if !validWorkload(cfg.workload) || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%v trace=%v GOMAXPROCS=%d NumCPU=%d\n",
		cfg.workload, cfg.seed, seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validWorkload(w string) bool {
	for _, n := range workloads {
		if n == w {
			return true
		}
	}
	return false
}

// execute runs one invocation and returns its result line. An error means
// the benchmark could not run at all (set-up failed); failed checks are
// reported in the result instead.
func execute(cfg config) (*result, error) {
	runDir := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.out = runDir

	r := newRun()
	var err error
	if cfg.trace {
		err = executeTraced(cfg, r)
	} else {
		err = executeTimed(cfg, r)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// executeTimed is the untraced run. After all three stages are set up,
// the timed phase runs timedCycles cycles; each runs the three stages in
// the workload's order: one analyze round, and one part of profile-run
// and of ingest-query, each part timed for a third of its stage's share:
//
//	profile-run workload: P A I  P A I  P A I
//	analyze workload:     A P I  A P I  A P I
//
// So every stage's samples span the run, and a slow spell of the shared
// host that covers one part meets about a third of them and leaves their
// median near that of the rest. The ingest server stays up, idle, between
// its parts. heap_mib is taken after the last analyze round, with every
// stage's data live. setup_s sums the three stages' set-up times.
func executeTimed(cfg config, r *run) error {
	ing, setup, err := setupTimedIngest(cfg, r)
	if err != nil {
		return fmt.Errorf("%s: %w", wIngest, err)
	}
	fail := func(stage string, err error) error {
		closeServer(ing.srv)
		return fmt.Errorf("%s: %w", stage, err)
	}
	prof, s, err := setupTimedProfile(cfg)
	if err != nil {
		return fail(wProfile, err)
	}
	setup += s
	an, s, err := setupTimedAnalyze(cfg)
	if err != nil {
		return fail(wAnalyze, err)
	}
	setup += s

	var rounds []profileRound
	var suite, huge []float64
	var load ingestWindow
	start := time.Now()
	for c := 0; c < timedCycles; c++ {
		for _, w := range stageOrder(cfg.workload) {
			switch w {
			case wProfile:
				rounds = prof.timedRounds(r, rounds, stageWindow(cfg, wProfile)/timedCycles)
			case wAnalyze:
				rd := an.round(c, r, nil, cfg.fault)
				suite = append(suite, rd.suiteS)
				huge = append(huge, rd.hugeS)
				if c == timedCycles-1 {
					r.set("heap_mib", liveHeapMiB(), "MiB")
					runtime.KeepAlive(prof.reports)
					an.checkDecoders(r)
					an.checkHuge(r)
				}
				// The other stages' parts should not carry a round's
				// products in their collections.
				an.dropProducts()
				runtime.GC()
			case wIngest:
				load.add(ing.window(r, nil, stageWindow(cfg, wIngest)/timedCycles, 0))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d cycles in %.2fs: %d profile-run rounds, %d analyze rounds\n",
		timedCycles, time.Since(start).Seconds(), len(rounds), len(suite))

	reportProfile(r, rounds)
	r.set("analyze_s", median(suite), "s")
	r.set("analyze_huge_s", median(huge), "s")
	ingestFigures(load)
	r.set("query_p50_ms", median(load.queryMs), "ms")
	r.set("setup_s", setup, "s")

	prof.checkContexts(r, cfg.fault)
	ing.finish(r, load.acked, cfg.fault)
	return os.RemoveAll(ing.dir)
}

// timedCycles is how many cycles the timed phase runs, and so how many
// analyze rounds and parts of the other two stages it has. With three, the
// median of each stage's samples holds when a spell covers one part.
const timedCycles = 3

// stageWindow is stage's share of the run's window.
func stageWindow(cfg config, stage string) time.Duration {
	return time.Duration(share[stage] * float64(cfg.window))
}

// stageOrder is the workload's own stage followed by the other two.
func stageOrder(workload string) []string {
	order := []string{workload}
	for _, w := range stages {
		if w != workload {
			order = append(order, w)
		}
	}
	return order
}

// setupRepeats is how often each stage is set up; the stage's set-up time
// is the median. Only the last set-up's products are kept.
const setupRepeats = 3

// measureSetup runs build setupRepeats times and returns the last product
// and the median time in seconds. release frees an earlier product.
func measureSetup[T any](build func(rep int) (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for rep := 0; rep < setupRepeats; rep++ {
		if rep > 0 {
			release(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := build(rep)
		if err != nil {
			var none T
			return none, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// liveHeapMiB forces a collection and reports the live heap. Call it while
// the stage's products are still referenced.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// printTable writes the metrics, one per line, to standard error.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
