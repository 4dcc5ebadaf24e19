package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/workload"
)

// Algorithm 2's restarts resume the sweep at the new anchor. These tests
// drive restart patterns that stress that resume — many restarts at small
// widths, a new anchor at topological position 0, new anchors at adjacent
// positions — and assert each result identical to the reference sweep,
// which redoes every pass from scratch.

// parallelSites adds k call sites from caller to callee, with labels
// counting up from *label.
func parallelSites(g *callgraph.Graph, caller, callee callgraph.NodeID, k int, label *int32) {
	for i := 0; i < k; i++ {
		g.AddEdge(caller, *label, callee)
		*label++
	}
}

// cellCount is the number of (node, anchor) territory cells of a result.
func cellCount(res *Result) int { return len(res.terr.cav) }

// TestResumeManyRestarts: random layered graphs at widths small enough to
// restart many times. Every pass after the first resumes, so the engine
// sweeps fewer sites than restarting from scratch would. The leaf
// "batchfalse" (restarts are never batched) keeps the subtest names stable.
func TestResumeManyRestarts(t *testing.T) {
	seeds := []int64{11, 12, 13, 14, 15, 16}
	if testing.Short() {
		seeds = seeds[:2]
	}
	most := 0
	for _, seed := range seeds {
		g := layeredTestGraph(seed, 160, 10)
		for _, maxID := range []uint64{1023, 127, 31} {
			t.Run(fmt.Sprintf("seed%d/max%d/batchfalse", seed, maxID), func(t *testing.T) {
				res := assertSameOutcome(t, g, Options{MaxID: maxID})
				if res == nil || res.Restarts == 0 {
					return
				}
				most = max(most, res.Restarts)
				scheduled := res.Stats.SweptSites
				if full := (res.Restarts + 1) * len(siteAVMap(res.Spec)); scheduled >= full {
					t.Errorf("%d restarts swept %d sites, no fewer than %d full passes would",
						res.Restarts, scheduled, full)
				}
			})
		}
	}
	if most < 10 {
		t.Errorf("no case restarted 10 times (most: %d); the widths no longer stress resume", most)
	}
}

// TestResumeEntryPromoted: the first overflow promotes the entry, which
// sits at topological position 0, so the next pass resumes from position 0
// and rebuilds every row. Promoting the entry does not relieve its own
// overflow, so the width must be rejected with the reference sweep's error,
// which names the entry as the anchor that overflowed again.
//
// E calls A through 4 sites and T2 through 1; A calls T2 through 4 sites
// and T through 5. At MaxID 16 the first pass fills T2's cell for E to
// exactly 16, so E's site into T2 overflows before A's fifth site into T.
func TestResumeEntryPromoted(t *testing.T) {
	g := callgraph.New()
	e := g.AddNode("E", false)
	a := g.AddNode("A", false)
	t2 := g.AddNode("T2", false)
	tt := g.AddNode("T", false)
	g.SetEntry(e)
	var label int32
	parallelSites(g, e, a, 4, &label)
	parallelSites(g, a, t2, 4, &label)
	parallelSites(g, e, t2, 1, &label)
	parallelSites(g, a, tt, 5, &label)

	if res := assertSameOutcome(t, g, Options{MaxID: 16}); res != nil {
		t.Fatalf("MaxID 16 accepted with anchors %v", res.OverflowAnchors)
	}
	_, err := Encode(g, Options{MaxID: 16})
	if want := "overflow at anchor E with limit 16"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one naming %q", err, want)
	}
}

// TestResumeAdjacentAnchors: the chain E -4-> N1 -4-> N2 -4-> N3 -5-> N4
// (k parallel sites per link) at MaxID 16. N2 overflows first; the pass
// resumed at N2 then overflows at N3, the very next topological position,
// and the pass resumed there succeeds.
func TestResumeAdjacentAnchors(t *testing.T) {
	g := callgraph.New()
	chain := make([]callgraph.NodeID, 5)
	for i := range chain {
		chain[i] = g.AddNode(fmt.Sprintf("N%d", i), false)
	}
	g.SetEntry(chain[0])
	var label int32
	for i, k := range []int{4, 4, 4, 5} {
		parallelSites(g, chain[i], chain[i+1], k, &label)
	}
	res := assertSameOutcome(t, g, Options{MaxID: 16})
	if res == nil {
		t.Fatal("width rejected")
	}
	want := []callgraph.NodeID{chain[2], chain[3]}
	if fmt.Sprint(res.OverflowAnchors) != fmt.Sprint(want) || res.Restarts != 2 {
		t.Fatalf("anchors %v in %d restarts, want %v in 2", res.OverflowAnchors, res.Restarts, want)
	}
}

// TestResumeEdgeProfileAndForcedAnchors: restarts under a hottest-first
// edge profile, which reorders the schedule, and under forced anchors,
// which reshape the territories the first pass starts from.
func TestResumeEdgeProfileAndForcedAnchors(t *testing.T) {
	g := layeredTestGraph(31, 160, 10)
	profile := make(map[callgraph.Edge]uint64)
	rnd := rand.New(rand.NewSource(5))
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			profile[e] = uint64(rnd.Intn(1000))
		}
	}
	forced := []callgraph.NodeID{9, 40, 77}
	for _, opts := range []Options{
		{MaxID: 127, EdgeProfile: profile},
		{MaxID: 127, ForceAnchors: forced},
		{MaxID: 127, EdgeProfile: profile, ForceAnchors: forced},
	} {
		if res := assertSameOutcome(t, g, opts); res == nil || res.Restarts == 0 {
			t.Fatalf("profile=%v forced=%v: the width was rejected or never restarted",
				opts.EdgeProfile != nil, opts.ForceAnchors != nil)
		}
	}
}

// TestResumeSunflowWork bounds the work of sunflow's restarts: its six
// overflow anchors sit late in the topological order, so resumed passes
// re-sweep few sites and rebuild few rows.
func TestResumeSunflowWork(t *testing.T) {
	p, ok := workload.ByName("sunflow")
	if !ok {
		t.Fatal("missing benchmark sunflow")
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Encode(build.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	t.Logf("%d restarts: %d swept sites (%d sites), %d territory cells (final pass %d)",
		res.Restarts, st.SweptSites, st.Sites, st.TerritoryCells, cellCount(res))
	if res.Restarts == 0 {
		t.Fatal("sunflow no longer restarts; this test measures nothing")
	}
	if st.SweptSites > 2*st.Sites {
		t.Errorf("swept %d sites, more than twice the graph's %d", st.SweptSites, st.Sites)
	}
	if final := cellCount(res); st.TerritoryCells > 4*final {
		t.Errorf("built %d territory cells, more than 4× the final pass's %d", st.TerritoryCells, final)
	}
}
