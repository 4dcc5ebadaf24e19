package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/verify"
)

// orderStable reports whether grown's topological order, restricted to
// base's nodes, equals base's topological order — the condition under which
// Extend is bit-exact with the whole-pass oracle (see the package comment
// in extend.go).
func orderStable(t *testing.T, base, grown *callgraph.Graph) bool {
	t.Helper()
	bt, err := base.TopoOrder(base.RecursiveEdges())
	if err != nil {
		t.Fatalf("base topo: %v", err)
	}
	gt, err := grown.TopoOrder(grown.RecursiveEdges())
	if err != nil {
		t.Fatalf("grown topo: %v", err)
	}
	restricted := gt[:0:0]
	for _, n := range gt {
		if int(n) < base.NumNodes() {
			restricted = append(restricted, n)
		}
	}
	return reflect.DeepEqual(bt, restricted)
}

// checkSound certifies an Extend result through the static verifier: every
// encoding the spec can produce decodes to exactly one context. This is the
// contract for deltas that reorder old nodes, where spec equality with the
// from-scratch oracle is not promised.
func checkSound(t *testing.T, res *Result, prev *Result, maxID uint64) {
	t.Helper()
	rep := verify.Check(res.Spec, nil, verify.Options{MaxID: maxID})
	if !rep.Clean() {
		t.Errorf("Extend result fails verification:\n%s", rep.Text())
	}
	for n := range prev.PieceStarts {
		if !res.PieceStarts[n] {
			t.Errorf("previous piece start %d dropped", n)
		}
	}
}

// oracleFor is the whole-pass ground truth an Extend must reproduce: a full
// Encode of the grown graph with the previous resetting anchors forced,
// which is exactly the anchor-retention policy Extend implements. (The
// entry is a piece start but not forced: ForceAnchors forces resets, and a
// non-recursive entry must stay flow-through.)
func oracleFor(t *testing.T, g *callgraph.Graph, prev *Result, maxID uint64) *Result {
	t.Helper()
	force := make([]callgraph.NodeID, 0, len(prev.Spec.Anchors))
	for n := range prev.Spec.Anchors {
		force = append(force, n)
	}
	sort.Slice(force, func(i, j int) bool { return force[i] < force[j] })
	res, err := Encode(g, Options{MaxID: maxID, ForceAnchors: force})
	if err != nil {
		t.Fatalf("oracle Encode: %v", err)
	}
	return res
}

// checkSameEncoding asserts got (an Extend result) equals want (the oracle)
// on every externally meaningful quantity and on the territory rows and
// cells an Extend keeps, so chained Extends stay exact too.
func checkSameEncoding(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Spec.SiteAV, want.Spec.SiteAV) {
		t.Errorf("SiteAV mismatch:\n got %v\nwant %v", got.Spec.SiteAV, want.Spec.SiteAV)
	}
	if !reflect.DeepEqual(got.Spec.Anchors, want.Spec.Anchors) {
		t.Errorf("Anchors mismatch:\n got %v\nwant %v", got.Spec.Anchors, want.Spec.Anchors)
	}
	if !reflect.DeepEqual(got.Spec.Push, want.Spec.Push) {
		t.Errorf("Push mismatch:\n got %v\nwant %v", got.Spec.Push, want.Spec.Push)
	}
	if g, w := iccMap(got), iccMap(want); !reflect.DeepEqual(g, w) {
		t.Errorf("ICC mismatch:\n got %v\nwant %v", g, w)
	}
	if !reflect.DeepEqual(got.PieceStarts, want.PieceStarts) {
		t.Errorf("PieceStarts mismatch:\n got %v\nwant %v", got.PieceStarts, want.PieceStarts)
	}
	if !reflect.DeepEqual(got.OverflowAnchors, want.OverflowAnchors) {
		t.Errorf("OverflowAnchors mismatch:\n got %v\nwant %v", got.OverflowAnchors, want.OverflowAnchors)
	}
	if got.MaxID != want.MaxID {
		t.Errorf("MaxID mismatch: got %d want %d", got.MaxID, want.MaxID)
	}
	if got.Restarts != want.Restarts {
		t.Errorf("Restarts mismatch: got %d want %d", got.Restarts, want.Restarts)
	}
	gotRows, gotCAV := rowMaps(got)
	wantRows, wantCAV := rowMaps(want)
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("NAnchors mismatch:\n got %v\nwant %v", gotRows, wantRows)
	}
	if !reflect.DeepEqual(gotCAV, wantCAV) {
		t.Errorf("retained CAV mismatch:\n got %v\nwant %v", gotCAV, wantCAV)
	}
}

// extendChecked runs Extend and asserts what every Extend must hold: the
// outcome, error and statistics of the map Extend (extendOracle), and a
// previous row and previous cells for every old node the map Extend left
// clean.
func extendChecked(t *testing.T, prev *Result, g *callgraph.Graph, opts Options) (*Result, *ExtendStats, error) {
	t.Helper()
	got, stats, err := Extend(prev, g, opts)
	ref, refStats, refErr := extendOracle(prev, g, opts)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Extend error %v, map Extend error %v", err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("error text diverged: %q vs map Extend %q", err, refErr)
		}
		return nil, nil, err
	}
	assertIdentical(t, g, ref, got)
	if !reflect.DeepEqual(stats, refStats) {
		t.Errorf("ExtendStats diverged:\n got %+v\nwant %+v", stats, refStats)
	}
	for n := 0; n < prev.Spec.Graph.NumNodes(); n++ {
		if ref.dirty[callgraph.NodeID(n)] {
			continue
		}
		oldRows, oldCAV := prev.terr.row(callgraph.NodeID(n))
		rows, cav := got.terr.row(callgraph.NodeID(n))
		if !slices.Equal(oldRows, rows) || !slices.Equal(oldCAV, cav) {
			t.Errorf("clean node %d: row %v cells %v, previously %v %v", n, rows, cav, oldRows, oldCAV)
		}
	}
	return got, stats, nil
}

// TestExtendHandcrafted covers the delta shapes with distinct dirty-closure
// behavior: a virtual site gaining a target, a new edge merging old nodes
// into a cycle (newly recursive edges), a site losing its last
// non-recursive target, and plain new-subtree growth.
func TestExtendHandcrafted(t *testing.T) {
	t.Run("virtual site gains target", func(t *testing.T) {
		g := callgraph.New()
		main := g.AddNode("main", false)
		a := g.AddNode("a", false)
		b := g.AddNode("b", false)
		sink := g.AddNode("sink", false)
		g.SetEntry(main)
		g.AddEdge(main, 0, a)
		g.AddEdge(main, 1, b) // virtual site 1, first target
		g.AddEdge(a, 0, sink)
		g.AddEdge(b, 0, sink)
		prev := mustEncode(t, g, Options{})

		g2 := g.Clone()
		c := g2.AddNode("c", false)
		g2.AddEdge(main, 1, c) // same site, new dispatch target
		g2.AddEdge(c, 0, sink)

		got, stats, err := extendChecked(t, prev, g2, Options{})
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		if !orderStable(t, g, g2) {
			t.Fatal("test premise broken: delta reorders old nodes")
		}
		checkSameEncoding(t, got, oracleFor(t, g2, prev, 0))
		if stats.NewNodes != 1 || stats.NewEdges != 2 {
			t.Errorf("stats = %+v, want 1 new node, 2 new edges", stats)
		}
		if stats.DirtyNodes >= stats.TotalNodes {
			t.Errorf("nothing stayed clean: %+v", stats)
		}
	})

	t.Run("new edge creates recursion among old nodes", func(t *testing.T) {
		g := callgraph.New()
		main := g.AddNode("main", false)
		a := g.AddNode("a", false)
		b := g.AddNode("b", false)
		c := g.AddNode("c", false)
		g.SetEntry(main)
		g.AddEdge(main, 0, a)
		g.AddEdge(a, 0, b)
		g.AddEdge(b, 0, c)
		prev := mustEncode(t, g, Options{})

		g2 := g.Clone()
		g2.AddEdge(c, 0, a) // closes a->b->c->a: all three edges turn recursive

		got, _, err := extendChecked(t, prev, g2, Options{})
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		if !orderStable(t, g, g2) {
			t.Fatal("test premise broken: delta reorders old nodes")
		}
		checkSameEncoding(t, got, oracleFor(t, g2, prev, 0))
	})

	t.Run("site loses last non-recursive target", func(t *testing.T) {
		g := callgraph.New()
		main := g.AddNode("main", false)
		a := g.AddNode("a", false)
		b := g.AddNode("b", false)
		g.SetEntry(main)
		g.AddEdge(main, 0, a)
		g.AddEdge(a, 0, b) // monomorphic site; will turn recursive
		prev := mustEncode(t, g, Options{})
		if _, ok := siteAVMap(prev.Spec)[callgraph.Site{Caller: a, Label: 0}]; !ok {
			t.Fatalf("precondition: site a@0 should have an AV before the cycle forms")
		}

		g2 := g.Clone()
		g2.AddEdge(b, 0, a) // a<->b cycle: both edges recursive

		got, _, err := extendChecked(t, prev, g2, Options{})
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		if !orderStable(t, g, g2) {
			t.Fatal("test premise broken: delta reorders old nodes")
		}
		checkSameEncoding(t, got, oracleFor(t, g2, prev, 0))
		if _, ok := siteAVMap(got.Spec)[callgraph.Site{Caller: a, Label: 0}]; ok {
			t.Errorf("site a@0 kept a stale AV after its only edge turned recursive")
		}
	})

	t.Run("new subtree from old leaf", func(t *testing.T) {
		g := callgraph.New()
		main := g.AddNode("main", false)
		a := g.AddNode("a", false)
		g.SetEntry(main)
		g.AddEdge(main, 0, a)
		prev := mustEncode(t, g, Options{})

		g2 := g.Clone()
		x := g2.AddNode("x", false)
		y := g2.AddNode("y", false)
		g2.AddEdge(a, 1, x)
		g2.AddEdge(x, 0, y)
		g2.AddEdge(x, 1, y) // second site into y: ICC(y) = 2 through x

		got, _, err := extendChecked(t, prev, g2, Options{})
		if err != nil {
			t.Fatalf("Extend: %v", err)
		}
		if !orderStable(t, g, g2) {
			t.Fatal("test premise broken: delta reorders old nodes")
		}
		checkSameEncoding(t, got, oracleFor(t, g2, prev, 0))
	})
}

// TestExtendOverflowPromotion forces the incremental pass through the
// anchor-promotion restart loop with a tiny integer width and checks the
// promoted anchors match the whole-pass oracle exactly.
func TestExtendOverflowPromotion(t *testing.T) {
	const maxID = 20 // fits the 3-rung base (peak ICC 8), not the grown 5-rung ladder (peak 32)
	g := callgraph.New()
	main := g.AddNode("main", false)
	g.SetEntry(main)
	// A diamond ladder: each rung doubles the context count.
	prevL, prevR := main, main
	for i := 0; i < 3; i++ {
		l := g.AddNode(fmt.Sprintf("l%d", i), false)
		r := g.AddNode(fmt.Sprintf("r%d", i), false)
		join := g.AddNode(fmt.Sprintf("j%d", i), false)
		g.AddEdge(prevL, 0, l)
		g.AddEdge(prevL, 1, r)
		if prevR != prevL {
			g.AddEdge(prevR, 0, l)
			g.AddEdge(prevR, 1, r)
		}
		g.AddEdge(l, 0, join)
		g.AddEdge(r, 0, join)
		prevL, prevR = join, join
	}
	prev, err := Encode(g, Options{MaxID: maxID})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Grow two more rungs: the added doublings must overflow maxID and
	// promote anchors during Extend.
	g2 := g.Clone()
	for i := 3; i < 5; i++ {
		l := g2.AddNode(fmt.Sprintf("l%d", i), false)
		r := g2.AddNode(fmt.Sprintf("r%d", i), false)
		join := g2.AddNode(fmt.Sprintf("j%d", i), false)
		g2.AddEdge(prevL, 0, l)
		g2.AddEdge(prevL, 1, r)
		g2.AddEdge(l, 0, join)
		g2.AddEdge(r, 0, join)
		prevL = join
	}

	got, stats, err := extendChecked(t, prev, g2, Options{MaxID: maxID})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if stats.Restarts == 0 {
		t.Fatalf("expected overflow restarts at maxID=%d, got none (stats %+v)", maxID, stats)
	}
	if !orderStable(t, g, g2) {
		t.Fatal("test premise broken: delta reorders old nodes")
	}
	checkSameEncoding(t, got, oracleFor(t, g2, prev, maxID))
}

func mustEncode(t *testing.T, g *callgraph.Graph, opts Options) *Result {
	t.Helper()
	res, err := Encode(g, opts)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return res
}

// randomGrowth builds a random base graph, encodes it, applies a random
// delta (new nodes, new edges of every shape: old->old at new and existing
// sites, old->new, new->new, new->old back-edges that create recursion) and
// returns everything needed for a differential check.
func randomGrowth(rng *rand.Rand) (base *callgraph.Graph, grown *callgraph.Graph) {
	g := callgraph.New()
	nBase := 4 + rng.Intn(12)
	ids := make([]callgraph.NodeID, nBase)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i), false)
	}
	g.SetEntry(ids[0])
	addRandomEdges(rng, g, ids, nil, 1+rng.Intn(2*nBase))
	if rng.Intn(3) == 0 {
		g.MarkContextRoot(ids[rng.Intn(nBase)])
	}

	g2 := g.Clone()
	nNew := 1 + rng.Intn(5)
	newIDs := make([]callgraph.NodeID, nNew)
	for i := range newIDs {
		newIDs[i] = g2.AddNode(fmt.Sprintf("x%d", i), false)
	}
	addRandomEdges(rng, g2, ids, newIDs, 1+rng.Intn(nBase+2*nNew))
	if rng.Intn(4) == 0 {
		g2.MarkContextRoot(newIDs[rng.Intn(nNew)])
	}
	return g, g2
}

// addRandomEdges inserts count random edges. With both old and new node
// pools it biases toward deltas that touch old territory: new dispatch
// targets on existing sites, cross edges in both directions, and back-edges
// (which may create recursion among old nodes).
func addRandomEdges(rng *rand.Rand, g *callgraph.Graph, old, new_ []callgraph.NodeID, count int) {
	all := append(append([]callgraph.NodeID(nil), old...), new_...)
	for i := 0; i < count; i++ {
		caller := all[rng.Intn(len(all))]
		callee := all[rng.Intn(len(all))]
		if caller == callee && rng.Intn(2) == 0 {
			continue // keep self-loops rarer than other shapes
		}
		label := int32(rng.Intn(4))
		g.AddEdge(caller, label, callee)
	}
}

// TestExtendRandomDifferential is the core proof of incrementality: across
// many random base graphs and random deltas — including ones that create
// recursion, widen virtual sites and trigger overflow restarts — Extend
// must reproduce the whole-pass oracle exactly, and a second chained Extend
// must too.
func TestExtendRandomDifferential(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			maxID := uint64(0)
			if seed%3 == 0 {
				maxID = uint64(8 + rng.Intn(64)) // tiny width: exercise promotion
			}
			base, grown := randomGrowth(rng)
			prev, err := Encode(base, Options{MaxID: maxID})
			if err != nil {
				t.Skipf("base graph does not fit maxID=%d: %v", maxID, err)
			}
			got, _, err := extendChecked(t, prev, grown, Options{MaxID: maxID})
			oracleErr := func() error {
				_, e := Encode(grown, Options{MaxID: maxID})
				return e
			}
			stable := orderStable(t, base, grown)
			if err != nil {
				// The only legitimate failure is a width too small for the
				// grown graph — and under a stable order the oracle must
				// fail too. (A reordering delta may overflow differently.)
				if stable && oracleErr() == nil {
					t.Fatalf("Extend failed (%v) but a full pass succeeds", err)
				}
				return
			}
			if stable {
				checkSameEncoding(t, got, oracleFor(t, grown, prev, maxID))
			} else {
				checkSound(t, got, prev, maxID)
			}

			// Chain a second delta on top of the Extend result.
			g3 := grown.Clone()
			extra := g3.AddNode("chain0", false)
			pool := append([]callgraph.NodeID(nil), g3.Nodes()...)
			addRandomEdges(rng, g3, pool, []callgraph.NodeID{extra}, 1+rng.Intn(6))
			got2, _, err := extendChecked(t, got, g3, Options{MaxID: maxID})
			stable2 := stable && orderStable(t, grown, g3)
			if err != nil {
				if stable2 {
					if oe := func() error { _, e := Encode(g3, Options{MaxID: maxID}); return e }(); oe == nil {
						t.Fatalf("chained Extend failed (%v) but a full pass succeeds", err)
					}
				}
				return
			}
			if stable2 {
				checkSameEncoding(t, got2, oracleFor(t, g3, got, maxID))
			} else {
				checkSound(t, got2, got, maxID)
			}
		})
	}
}

// TestExtendRejects pins the unsupported-mode contract.
func TestExtendRejects(t *testing.T) {
	g := callgraph.New()
	main := g.AddNode("main", false)
	a := g.AddNode("a", false)
	g.SetEntry(main)
	g.AddEdge(main, 0, a)
	prev := mustEncode(t, g, Options{})
	g2 := g.Clone()
	g2.AddNode("b", false)

	if _, _, err := Extend(nil, g2, Options{}); err == nil {
		t.Errorf("nil prev accepted")
	}
	if _, _, err := Extend(&Result{}, g2, Options{}); err == nil {
		t.Errorf("prev without incremental state accepted")
	}
	if _, _, err := Extend(prev, g2, Options{ForceAnchors: []callgraph.NodeID{a}}); err == nil {
		t.Errorf("ForceAnchors accepted")
	}
	if _, _, err := Extend(prev, g2, Options{EdgeProfile: map[callgraph.Edge]uint64{{Caller: main, Callee: a}: 1}}); err == nil {
		t.Errorf("EdgeProfile accepted")
	}

	// A graph that renames an old node is not a prefix extension.
	bad := callgraph.New()
	bad.AddNode("main", false)
	bad.AddNode("zzz", false)
	bad.SetEntry(0)
	bad.AddEdge(0, 0, 1)
	if _, _, err := Extend(prev, bad, Options{}); err == nil {
		t.Errorf("renumbered graph accepted")
	}

	prunedSpec := &encoding.Spec{Graph: g, Push: map[callgraph.Edge]encoding.PieceKind{
		{Caller: main, Callee: a}: encoding.PiecePruned,
	}}
	pruned := &Result{Spec: prunedSpec, terr: prev.terr, PieceStarts: prev.PieceStarts}
	if _, _, err := Extend(pruned, g2, Options{}); err == nil {
		t.Errorf("pruned encoding accepted")
	}
}

// extendStaged is the dpbench extend experiment's staged program
// (internal/eval): three dynamic classes, one a subclass of another, one
// making an old site recursive once absorbed.
const extendStaged = `
entry P.main
class P {
  method main {
    call P.warm
    load X
    loop 2 { vcall Q.op }
    load Y
    loop 2 { vcall Q.op }
    load Z
    loop 3 { vcall Q.op }
    call P.tail
    emit fin
  }
  method warm { vcall Q.op; emit warm }
  method tail { vcall Q.op }
}
class Q { method op { call S.leaf; emit qop } }
class S { method leaf { emit leaf } }
dynamic class X extends Q { method op { call S.leaf; emit xop } }
dynamic class Y extends X { method op { emit yop } }
dynamic class Z extends Q { method op { call P.tail; emit zop } }
`

// TestExtendStatsExtendCorpus absorbs, one epoch per class in declaration
// order, the dynamic classes of the dpbench extend experiment's programs
// (the staged program, dynload and examples/plugins.mv) and of the other
// corpus programs that have any, under both encoding settings. Every step
// must match the map Extend, ExtendStats included (DirtyNodes, DirtySites,
// RecomputedAnchors and DirtyTerritoryList among them).
func TestExtendStatsExtendCorpus(t *testing.T) {
	sources := map[string]string{"staged": extendStaged}
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mv"))
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*.mv"))
	for _, p := range append(paths, examples...) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sources[filepath.Base(p)] = string(src)
	}
	steps := 0
	for name, src := range sources {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			opts := cha.Options{Setting: setting, KeepUnreachable: true}
			build, err := cha.Build(prog, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res := mustEncode(t, build.Graph, Options{})
			var absorbed []string
			for _, c := range prog.Dynamic {
				absorbed = append(absorbed, c.Name)
				if build, err = cha.Extend(build, prog, absorbed, opts); err != nil {
					t.Fatalf("%s: cha.Extend(%v): %v", name, absorbed, err)
				}
				next, stats, err := extendChecked(t, res, build.Graph, Options{})
				if err != nil {
					t.Fatalf("%s: Extend(%v): %v", name, absorbed, err)
				}
				t.Logf("%s/%v +%s: %d/%d dirty nodes, %d/%d dirty sites, %d recomputed anchors, territories %v",
					name, setting, c.Name, stats.DirtyNodes, stats.TotalNodes, stats.DirtySites, stats.TotalSites,
					stats.RecomputedAnchors, stats.DirtyTerritoryList)
				res = next
				steps++
			}
		}
	}
	if steps < 10 {
		t.Fatalf("only %d absorption steps; the corpus lost its dynamic classes", steps)
	}
}

// TestExtendChecksCleanRows: Extend copies a clean node's cells from its
// previous row only when the grown graph gives it the same row; a previous
// row that disagrees fails the Extend with an error naming the node, and a
// previous spec whose SiteAV has the wrong length is refused before
// anything reads it.
func TestExtendChecksCleanRows(t *testing.T) {
	g := callgraph.New()
	main := g.AddNode("main", false)
	a := g.AddNode("a", false)
	b := g.AddNode("b", false)
	c := g.AddNode("c", false)
	g.SetEntry(main)
	g.AddEdge(main, 0, a)
	g.AddEdge(a, 0, b)
	g.AddEdge(main, 1, c)
	prev := mustEncode(t, g, Options{})
	g2 := g.Clone()
	x := g2.AddNode("x", false)
	g2.AddEdge(c, 0, x)
	if _, stats, err := extendChecked(t, prev, g2, Options{}); err != nil || stats.DirtyNodes != 1 {
		t.Fatalf("Extend = %v, stats %+v: only x should be dirty", err, stats)
	}

	tampered := *prev
	terr := *prev.terr
	terr.rows = slices.Clone(terr.rows)
	terr.rows[terr.rowOff[terr.pos[b]]] = int32(c)
	tampered.terr = &terr
	if _, _, err := Extend(&tampered, g2, Options{}); err == nil || !strings.Contains(err.Error(), "clean node b changed territories") {
		t.Fatalf("Extend over a changed clean row = %v", err)
	}

	short := *prev
	spec := *prev.Spec
	spec.SiteAV = spec.SiteAV[:len(spec.SiteAV)-1]
	short.Spec = &spec
	if _, _, err := Extend(&short, g2, Options{}); err == nil || !strings.Contains(err.Error(), "SiteAV has 2 entries for 3 call sites") {
		t.Fatalf("Extend over a short SiteAV = %v", err)
	}
}
