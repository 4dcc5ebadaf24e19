package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/cpt"
	"deltapath/internal/workload"
)

// encodeBoth runs the reference map sweep and the level-parallel engine
// with the given pool size on the same graph and options.
func encodeBoth(t *testing.T, g *callgraph.Graph, opts Options, workers int) (*Result, *Result) {
	t.Helper()
	serial, err := encodeOracle(g, opts)
	if err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	parOpts := opts
	parOpts.Workers = workers
	par, err := Encode(g, parOpts)
	if err != nil {
		t.Fatalf("parallel Encode: %v", err)
	}
	if par.Stats == nil || par.Stats.Par != workers || par.Stats.Levels == 0 {
		t.Fatalf("parallel engine stats wrong: %+v", par.Stats)
	}
	return serial, par
}

// assertIdentical compares every analysis output the engine and the
// reference sweep must agree on, including the serialized .dpa bytes and
// the call-path-tracking SIDs.
func assertIdentical(t *testing.T, g *callgraph.Graph, serial, par *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Spec.SiteAV, par.Spec.SiteAV) {
		t.Errorf("SiteAV diverged: serial %d sites, parallel %d sites",
			len(serial.Spec.SiteAV), len(par.Spec.SiteAV))
	}
	if !reflect.DeepEqual(serial.Spec.Anchors, par.Spec.Anchors) {
		t.Errorf("Anchors diverged: %v vs %v", serial.Spec.Anchors, par.Spec.Anchors)
	}
	if !reflect.DeepEqual(serial.Spec.Push, par.Spec.Push) {
		t.Errorf("Push diverged")
	}
	if !reflect.DeepEqual(serial.ICC, par.ICC) {
		t.Errorf("ICC diverged")
	}
	if !reflect.DeepEqual(serial.NAnchors, par.NAnchors) {
		t.Errorf("NAnchors diverged")
	}
	if !reflect.DeepEqual(serial.PieceStarts, par.PieceStarts) {
		t.Errorf("PieceStarts diverged: %v vs %v", serial.PieceStarts, par.PieceStarts)
	}
	if !reflect.DeepEqual(serial.OverflowAnchors, par.OverflowAnchors) {
		t.Errorf("OverflowAnchors diverged: %v vs %v", serial.OverflowAnchors, par.OverflowAnchors)
	}
	if serial.Restarts != par.Restarts {
		t.Errorf("Restarts diverged: %d vs %d", serial.Restarts, par.Restarts)
	}
	if serial.MaxID != par.MaxID {
		t.Errorf("MaxID diverged: %d vs %d", serial.MaxID, par.MaxID)
	}
	if !reflect.DeepEqual(serial.inc.cav, par.inc.cav) {
		t.Errorf("incState.cav diverged")
	}
	if !reflect.DeepEqual(serial.inc.eanchors, par.inc.eanchors) {
		t.Errorf("incState.eanchors diverged")
	}

	// SIDs depend only on the graph, but the scale pipeline saves them
	// next to the spec — assert the full .dpa byte stream is identical.
	plan := cpt.Compute(g)
	var sb, pb bytes.Buffer
	if err := analysisio.Save(&sb, serial.Spec, plan); err != nil {
		t.Fatalf("Save(serial): %v", err)
	}
	if err := analysisio.Save(&pb, par.Spec, plan); err != nil {
		t.Fatalf("Save(parallel): %v", err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf(".dpa bytes diverged: %d vs %d bytes", sb.Len(), pb.Len())
	}
}

// TestParallelSerialDifferential proves the engine equivalent to the
// reference sweep over the whole generated corpus, under both encoding
// settings, and on a huge smoke tier, for pool sizes bracketing the
// GOMAXPROCS ∈ {1, 4} CI matrix.
func TestParallelSerialDifferential(t *testing.T) {
	differential := func(t *testing.T, g *callgraph.Graph) {
		for _, workers := range []int{1, 2, 4} {
			serial, par := encodeBoth(t, g, Options{}, workers)
			assertIdentical(t, g, serial, par)
		}
	}
	suite := workload.Suite()
	if testing.Short() {
		suite = suite[:5]
	}
	for _, params := range suite {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			params, setting := params, setting
			t.Run(fmt.Sprintf("%s/setting%d", params.Name, setting), func(t *testing.T) {
				prog, err := params.Generate()
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				build, err := cha.Build(prog, cha.Options{Setting: setting})
				if err != nil {
					t.Fatalf("cha.Build: %v", err)
				}
				differential(t, build.Graph)
			})
		}
	}
	huge := workload.HugeSmoke(20_000)
	if testing.Short() {
		huge = workload.HugeSmoke(5_000)
	}
	t.Run(huge.Name, func(t *testing.T) {
		g, err := huge.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		differential(t, g)
	})
}

// layeredTestGraph builds a random layered DAG whose node IDs interleave
// across layers — the shape where the Kahn order diverges most from a
// naive level order — with virtual fan-out sites and a few recursion
// pockets. Deterministic per seed.
func layeredTestGraph(seed int64, nodes, layers int) *callgraph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	g := callgraph.New()
	// Interleave: node i lands in layer i % layers, so IDs do not follow
	// the layer structure.
	var byLayer [][]callgraph.NodeID
	byLayer = make([][]callgraph.NodeID, layers)
	entry := g.AddNode("entry", false)
	g.SetEntry(entry)
	byLayer[0] = append(byLayer[0], entry)
	for i := 1; i < nodes; i++ {
		id := g.AddNode(fmt.Sprintf("f%d", i), false)
		byLayer[1+rnd.Intn(layers-1)] = append(byLayer[1+rnd.Intn(layers-1)], id)
	}
	label := func(n callgraph.NodeID) int32 { return int32(len(g.Out(n))) + 100 }
	for l := 0; l < layers-1; l++ {
		for _, n := range byLayer[l] {
			// Every node calls 1–3 sites into later layers; some sites
			// are virtual with 2–3 targets.
			for s := 0; s < 1+rnd.Intn(3); s++ {
				tl := l + 1 + rnd.Intn(layers-l-1)
				if len(byLayer[tl]) == 0 {
					continue
				}
				lab := label(n)
				for k := 0; k < 1+rnd.Intn(3); k++ {
					g.AddEdge(n, lab, byLayer[tl][rnd.Intn(len(byLayer[tl]))])
				}
			}
		}
	}
	// Coverage: every non-entry node gets a caller from an earlier layer.
	for l := 1; l < layers; l++ {
		for _, n := range byLayer[l] {
			if len(g.In(n)) > 0 {
				continue
			}
			pl := rnd.Intn(l)
			for len(byLayer[pl]) == 0 {
				pl = rnd.Intn(l)
			}
			c := byLayer[pl][rnd.Intn(len(byLayer[pl]))]
			g.AddEdge(c, label(c), n)
		}
	}
	// Recursion pockets: a few mutual 2-cycles.
	for i := 0; i < 3; i++ {
		l := 1 + rnd.Intn(layers-1)
		if len(byLayer[l]) < 2 {
			continue
		}
		a := byLayer[l][rnd.Intn(len(byLayer[l]))]
		b := byLayer[l][rnd.Intn(len(byLayer[l]))]
		g.AddEdge(a, label(a), b)
		g.AddEdge(b, label(b), a)
	}
	return g
}

// TestParallelRandomGraphs sweeps random layered DAGs across MaxID widths
// small enough to trigger Algorithm 2's restart loop, in both restart
// policies, asserting the engine equals the reference sweep each time.
func TestParallelRandomGraphs(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		g := layeredTestGraph(seed, 120, 8)
		for _, maxID := range []uint64{0, 1 << 20, 4096, 255} {
			for _, batch := range []bool{false, true} {
				opts := Options{MaxID: maxID, BatchAnchors: batch}
				name := fmt.Sprintf("seed%d/max%d/batch%v", seed, maxID, batch)
				t.Run(name, func(t *testing.T) {
					serial, serr := encodeOracle(g, opts)
					parOpts := opts
					parOpts.Workers = 4
					par, perr := Encode(g, parOpts)
					if (serr == nil) != (perr == nil) {
						t.Fatalf("error divergence: serial %v, parallel %v", serr, perr)
					}
					if serr != nil {
						// Both engines must reject the width identically.
						if serr.Error() != perr.Error() {
							t.Fatalf("error text diverged: %q vs %q", serr, perr)
						}
						return
					}
					assertIdentical(t, g, serial, par)
				})
			}
		}
	}
}

// TestParallelEdgeProfile checks the hottest-first in-edge ordering is
// honored by the parallel schedule: the profile changes site assignment,
// and both engines must agree on the result.
func TestParallelEdgeProfile(t *testing.T) {
	g := layeredTestGraph(42, 80, 6)
	profile := make(map[callgraph.Edge]uint64)
	rnd := rand.New(rand.NewSource(99))
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			profile[e] = uint64(rnd.Intn(1000))
		}
	}
	serial, par := encodeBoth(t, g, Options{EdgeProfile: profile}, 4)
	assertIdentical(t, g, serial, par)
}

// TestParallelForcedAnchors reproduces the hybrid-encoding mode: forced
// anchors reset the runtime encoding and reshape every territory.
func TestParallelForcedAnchors(t *testing.T) {
	g := layeredTestGraph(7, 100, 7)
	forced := []callgraph.NodeID{5, 17, 33}
	serial, par := encodeBoth(t, g, Options{ForceAnchors: forced}, 4)
	assertIdentical(t, g, serial, par)
}

// TestParallelFigure4 pins the paper's worked example through the parallel
// engine — tiny graph, every AV checked by the serial tests already.
func TestParallelFigure4(t *testing.T) {
	g, _ := figure4()
	serial, par := encodeBoth(t, g, Options{}, 2)
	assertIdentical(t, g, serial, par)
}

// TestEffectiveWorkers pins the pool-size policy: auto mode is GOMAXPROCS
// capped at maxAutoWorkers, and an explicit count (1 included) is kept.
func TestEffectiveWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 16} {
		runtime.GOMAXPROCS(procs)
		if got, want := effectiveWorkers(Options{}), min(procs, maxAutoWorkers); got != want {
			t.Errorf("auto mode at GOMAXPROCS=%d: got %d workers, want %d", procs, got, want)
		}
		for _, w := range []int{1, 4} {
			if got := effectiveWorkers(Options{Workers: w}); got != w {
				t.Errorf("Workers=%d at GOMAXPROCS=%d: got %d", w, procs, got)
			}
		}
	}
}

// TestParallelStatsMemory checks MeasureMemory populates the budget fields.
func TestParallelStatsMemory(t *testing.T) {
	g := layeredTestGraph(3, 60, 5)
	res, err := Encode(g, Options{Workers: 2, MeasureMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil || st.PeakBytes == 0 || st.BytesPerNode <= 0 {
		t.Fatalf("memory stats not collected: %+v", st)
	}
	if st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() || st.Sites != g.NumSites() {
		t.Fatalf("shape stats wrong: %+v", st)
	}
}
