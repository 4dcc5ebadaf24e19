package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/cpt"
	"deltapath/internal/workload"
)

// encodeBoth runs the reference map sweep and the engine on the same graph
// and options.
func encodeBoth(t *testing.T, g *callgraph.Graph, opts Options) (*oracleResult, *Result) {
	t.Helper()
	ref, err := encodeOracle(g, opts)
	if err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	got, err := Encode(g, opts)
	if err != nil {
		t.Fatalf("engine Encode: %v", err)
	}
	if got.Stats == nil || got.Stats.SweptSites == 0 || got.Stats.TerritoryCells == 0 {
		t.Fatalf("engine stats wrong: %+v", got.Stats)
	}
	return ref, got
}

// assertIdentical compares every analysis output the engine and the
// reference sweep must agree on, including the serialized .dpa bytes and
// the call-path-tracking SIDs. The engine's rows and cells are compared as
// the reference sweep's maps, and each edge's union-rule row with the
// reference DFS's edge territory.
func assertIdentical(t *testing.T, g *callgraph.Graph, ref *oracleResult, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Spec.SiteAV, got.Spec.SiteAV) {
		t.Errorf("SiteAV diverged: reference %d sites, engine %d sites",
			len(ref.Spec.SiteAV), len(got.Spec.SiteAV))
	}
	if !reflect.DeepEqual(ref.Spec.Anchors, got.Spec.Anchors) {
		t.Errorf("Anchors diverged: %v vs %v", ref.Spec.Anchors, got.Spec.Anchors)
	}
	if !reflect.DeepEqual(ref.Spec.Push, got.Spec.Push) {
		t.Errorf("Push diverged")
	}
	if !reflect.DeepEqual(ref.icc, iccMap(got)) {
		t.Errorf("ICC diverged")
	}
	nanchors, cav := rowMaps(got)
	if !reflect.DeepEqual(sortedRows(ref.nanchors), nanchors) {
		t.Errorf("NAnchors diverged")
	}
	if !reflect.DeepEqual(ref.PieceStarts, got.PieceStarts) {
		t.Errorf("PieceStarts diverged: %v vs %v", ref.PieceStarts, got.PieceStarts)
	}
	if !reflect.DeepEqual(ref.OverflowAnchors, got.OverflowAnchors) {
		t.Errorf("OverflowAnchors diverged: %v vs %v", ref.OverflowAnchors, got.OverflowAnchors)
	}
	if ref.Restarts != got.Restarts {
		t.Errorf("Restarts diverged: %d vs %d", ref.Restarts, got.Restarts)
	}
	if ref.MaxID != got.MaxID {
		t.Errorf("MaxID diverged: %d vs %d", ref.MaxID, got.MaxID)
	}
	if !reflect.DeepEqual(ref.cav, cav) {
		t.Errorf("CAV cells diverged")
	}
	if !reflect.DeepEqual(sortedRows(ref.eanchors), edgeRows(got)) {
		t.Errorf("edge territories diverged")
	}

	// SIDs depend only on the graph, but the scale pipeline saves them
	// next to the spec — assert the full .dpa byte stream is identical.
	plan := cpt.Compute(g)
	var rb, gb bytes.Buffer
	if err := analysisio.Save(&rb, ref.Spec, plan); err != nil {
		t.Fatalf("Save(reference): %v", err)
	}
	if err := analysisio.Save(&gb, got.Spec, plan); err != nil {
		t.Fatalf("Save(engine): %v", err)
	}
	if !bytes.Equal(rb.Bytes(), gb.Bytes()) {
		t.Errorf(".dpa bytes diverged: %d vs %d bytes", rb.Len(), gb.Len())
	}
}

// TestParallelSerialDifferential proves the engine equivalent to the
// reference sweep over the whole generated corpus, under both encoding
// settings, and on a huge smoke tier. (The name predates the serial
// engine; it checks the engine against encodeOracle.)
func TestParallelSerialDifferential(t *testing.T) {
	differential := func(t *testing.T, g *callgraph.Graph) {
		ref, got := encodeBoth(t, g, Options{})
		assertIdentical(t, g, ref, got)
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
	// Interleave: each node lands in a random layer, so IDs do not follow
	// the layer structure.
	var byLayer [][]callgraph.NodeID
	byLayer = make([][]callgraph.NodeID, layers)
	entry := g.AddNode("entry", false)
	g.SetEntry(entry)
	byLayer[0] = append(byLayer[0], entry)
	for i := 1; i < nodes; i++ {
		id := g.AddNode(fmt.Sprintf("f%d", i), false)
		l := 1 + rnd.Intn(layers-1)
		byLayer[l] = append(byLayer[l], id)
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
// small enough to trigger Algorithm 2's restart loop, asserting the engine
// equals the reference sweep each time. The leaf "batchfalse" (restarts
// are never batched) keeps the subtest names stable.
func TestParallelRandomGraphs(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		g := layeredTestGraph(seed, 120, 8)
		for _, maxID := range []uint64{0, 1 << 20, 4096, 255} {
			name := fmt.Sprintf("seed%d/max%d/batchfalse", seed, maxID)
			t.Run(name, func(t *testing.T) { assertSameOutcome(t, g, Options{MaxID: maxID}) })
		}
	}
}

// assertSameOutcome runs the reference sweep and the engine on g: both must
// reject the width with the same error, or produce identical results in
// which every restart added exactly one anchor.
func assertSameOutcome(t *testing.T, g *callgraph.Graph, opts Options) *Result {
	t.Helper()
	ref, rerr := encodeOracle(g, opts)
	res, err := Encode(g, opts)
	if (rerr == nil) != (err == nil) {
		t.Fatalf("error divergence: reference %v, engine %v", rerr, err)
	}
	if rerr != nil {
		if rerr.Error() != err.Error() {
			t.Fatalf("error text diverged: %q vs %q", rerr, err)
		}
		return nil
	}
	assertIdentical(t, g, ref, res)
	if res.Restarts != len(res.OverflowAnchors) {
		t.Fatalf("%d restarts added %d anchors %v", res.Restarts, len(res.OverflowAnchors), res.OverflowAnchors)
	}
	return res
}

// TestParallelEdgeProfile checks the hottest-first in-edge ordering is
// honored by the engine's schedule: the profile changes site assignment,
// and the engine must agree with the reference sweep.
func TestParallelEdgeProfile(t *testing.T) {
	g := layeredTestGraph(42, 80, 6)
	profile := make(map[callgraph.Edge]uint64)
	rnd := rand.New(rand.NewSource(99))
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			profile[e] = uint64(rnd.Intn(1000))
		}
	}
	ref, got := encodeBoth(t, g, Options{EdgeProfile: profile})
	assertIdentical(t, g, ref, got)
}

// TestParallelForcedAnchors reproduces the hybrid-encoding mode: forced
// anchors reset the runtime encoding and reshape every territory.
func TestParallelForcedAnchors(t *testing.T) {
	g := layeredTestGraph(7, 100, 7)
	forced := []callgraph.NodeID{5, 17, 33}
	ref, got := encodeBoth(t, g, Options{ForceAnchors: forced})
	assertIdentical(t, g, ref, got)
}

// TestParallelFigure4 pins the paper's worked example through the engine
// and the reference sweep — tiny graph, every AV checked by the serial
// tests already.
func TestParallelFigure4(t *testing.T) {
	g, _ := figure4()
	ref, got := encodeBoth(t, g, Options{})
	assertIdentical(t, g, ref, got)
}

// TestParallelStatsMemory checks MeasureMemory populates the budget fields.
func TestParallelStatsMemory(t *testing.T) {
	g := layeredTestGraph(3, 60, 5)
	res, err := Encode(g, Options{MeasureMemory: true})
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
