package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/pcce"
)

// figure4 builds the graph of Figure 4: the seven-node graph where
// D'E and DF are one virtual call site in D, and CF and CG are one virtual
// call site in C.
//
// Site labels: A{0:B,1:C}; B{0:D}; C{0:D, 1:(F,G) virtual}; D{0:E, 1:(E,F)
// virtual}; E{0:G}; F{0:G}.
func figure4() (*callgraph.Graph, map[string]callgraph.NodeID) {
	g := callgraph.New()
	ids := make(map[string]callgraph.NodeID)
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		ids[n] = g.AddNode(n, false)
	}
	g.SetEntry(ids["A"])
	g.AddEdge(ids["A"], 0, ids["B"])
	g.AddEdge(ids["A"], 1, ids["C"])
	g.AddEdge(ids["B"], 0, ids["D"])
	g.AddEdge(ids["C"], 0, ids["D"])
	g.AddEdge(ids["D"], 0, ids["E"]) // DE: its own (static) call site
	g.AddEdge(ids["D"], 1, ids["E"]) // D'E: virtual site in D...
	g.AddEdge(ids["D"], 1, ids["F"]) // ...dispatching to E and F
	g.AddEdge(ids["C"], 1, ids["F"]) // CF: virtual site in C...
	g.AddEdge(ids["C"], 1, ids["G"]) // ...dispatching to F and G
	g.AddEdge(ids["E"], 0, ids["G"])
	g.AddEdge(ids["F"], 0, ids["G"])
	return g, ids
}

func iccOf(t *testing.T, res *Result, n, r callgraph.NodeID) uint64 {
	t.Helper()
	m, ok := iccMap(res)[n]
	if !ok {
		t.Fatalf("no ICC entry for node %d", n)
	}
	v, ok := m[r]
	if !ok {
		t.Fatalf("no ICC[%d][%d]", n, r)
	}
	return v
}

// TestFigure4Algorithm1 walks the exact narrative of Section 3.1.
func TestFigure4Algorithm1(t *testing.T) {
	g, ids := figure4()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverflowAnchors) != 0 || res.Restarts != 0 {
		t.Fatalf("unexpected anchors %v on a tiny graph", res.OverflowAnchors)
	}
	entry := ids["A"]
	// Node annotations (ICC values) from the narrative:
	// ICC[A]=1 (entry), ICC[B]=1, ICC[C]=1, ICC[D]=2, ICC[E]=4, ICC[F]=5.
	wantICC := map[string]uint64{"B": 1, "C": 1, "D": 2, "E": 4, "F": 5, "G": 14}
	for name, want := range wantICC {
		if got := iccOf(t, res, ids[name], entry); got != want {
			t.Errorf("ICC[%s] = %d, want %d", name, got, want)
		}
	}
	// The virtual call site in D gets the single addition value 2
	// (the narrative's max{CAV[E], CAV[F]} = 2).
	av := siteAVMap(res.Spec)
	if got := av[callgraph.Site{Caller: ids["D"], Label: 1}]; got != 2 {
		t.Errorf("AV[D virtual site] = %d, want 2", got)
	}
	if got := av[callgraph.Site{Caller: ids["D"], Label: 0}]; got != 0 {
		t.Errorf("AV[DE] = %d, want 0", got)
	}
	if got := av[callgraph.Site{Caller: ids["C"], Label: 0}]; got != 1 {
		t.Errorf("AV[CD] = %d, want 1", got)
	}
	if got := av[callgraph.Site{Caller: ids["C"], Label: 1}]; got != 4 {
		t.Errorf("AV[C virtual site] = %d, want 4", got)
	}
	if got := av[callgraph.Site{Caller: ids["E"], Label: 0}]; got != 5 {
		t.Errorf("AV[EG] = %d, want 5", got)
	}
	if got := av[callgraph.Site{Caller: ids["F"], Label: 0}]; got != 9 {
		t.Errorf("AV[FG] = %d, want 9", got)
	}
	if res.UnifiedVirtualSites != 2 {
		t.Errorf("UnifiedVirtualSites = %d, want 2", res.UnifiedVirtualSites)
	}
}

// TestFigure5Anchors forces C and D as anchors and checks the per-anchor
// ICC values and the worked CFG example of Section 3.2.
func TestFigure5Anchors(t *testing.T) {
	g, ids := figure4()
	res, err := Encode(g, Options{ForceAnchors: []callgraph.NodeID{ids["C"], ids["D"]}})
	if err != nil {
		t.Fatal(err)
	}
	A, C, D := ids["A"], ids["C"], ids["D"]
	// ICC[E][D] = 2 — stated explicitly in the figure caption.
	if got := iccOf(t, res, ids["E"], D); got != 2 {
		t.Errorf("ICC[E][D] = %d, want 2", got)
	}
	if got := iccOf(t, res, ids["F"], C); got != 1 {
		t.Errorf("ICC[F][C] = %d, want 1", got)
	}
	if got := iccOf(t, res, ids["F"], D); got != 2 {
		t.Errorf("ICC[F][D] = %d, want 2", got)
	}
	if got := iccOf(t, res, ids["B"], A); got != 1 {
		t.Errorf("ICC[B][A] = %d, want 1", got)
	}
	// Anchor ICCs are 1 relative to themselves.
	if got := iccOf(t, res, C, C); got != 1 {
		t.Errorf("ICC[C][C] = %d, want 1", got)
	}
	// Addition values from the narrative: CF/CG site 0, D virtual site 1,
	// EG 0, FG 2.
	av := siteAVMap(res.Spec)
	if got := av[callgraph.Site{Caller: C, Label: 1}]; got != 0 {
		t.Errorf("AV[C virtual site] = %d, want 0", got)
	}
	if got := av[callgraph.Site{Caller: ids["F"], Label: 0}]; got != 2 {
		t.Errorf("AV[FG] = %d, want 2", got)
	}
	if got := av[callgraph.Site{Caller: ids["E"], Label: 0}]; got != 0 {
		t.Errorf("AV[EG] = %d, want 0", got)
	}

	// Runtime walk of the call path A -> C -> F -> G: upon invoking the
	// anchor C the ID is saved and reset; at G the ID is 2 (the figure's
	// "encoding ID value 2" with element c on the stack).
	path := []callgraph.Edge{
		{Caller: A, Callee: C, Label: 1},
		{Caller: C, Callee: ids["F"], Label: 1},
		{Caller: ids["F"], Callee: ids["G"], Label: 0},
	}
	st, err := encoding.EncodePath(res.Spec, path)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 2 {
		t.Errorf("ID at G = %d, want 2", st.ID)
	}
	if len(st.Stack) != 1 || st.Stack[0].Kind != encoding.PieceAnchor || st.Stack[0].OuterEnd != C {
		t.Fatalf("stack = %+v, want one anchor element for C", st.Stack)
	}
	// Decode recovers A > C > F > G.
	dec := encoding.Compile(res.Spec)
	names, err := dec.DecodeNames(st, ids["G"])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, "") != "ACFG" {
		t.Fatalf("decode = %v, want ACFG", names)
	}
}

// exhaustiveCheck enumerates every context (recursion bounded) and checks
// encoding uniqueness and decode round trips.
func exhaustiveCheck(t *testing.T, g *callgraph.Graph, res *Result, maxRec, maxLen int) int {
	t.Helper()
	dec := encoding.Compile(res.Spec)
	seen := make(map[string]string)
	count := 0
	encoding.EnumeratePaths(g, maxRec, maxLen, func(path []callgraph.Edge) {
		count++
		st, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatal(err)
		}
		nodes := encoding.PathNodes(g, path)
		end := nodes[len(nodes)-1]
		parts := make([]string, len(nodes))
		for i, n := range nodes {
			parts[i] = g.Name(n)
		}
		want := strings.Join(parts, ">")
		key := st.Key(end)
		if prev, dup := seen[key]; dup && prev != want {
			t.Fatalf("encoding collision: key %q decodes as both %s and %s", key, prev, want)
		}
		seen[key] = want
		names, err := dec.DecodeNames(st, end)
		if err != nil {
			t.Fatalf("decode %s: %v", want, err)
		}
		if got := strings.Join(names, ">"); got != want {
			t.Fatalf("round trip: got %s, want %s", got, want)
		}
	})
	return count
}

func TestFigure4ExhaustiveRoundTrip(t *testing.T) {
	g, _ := figure4()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := exhaustiveCheck(t, g, res, 0, 16); n < 20 {
		t.Fatalf("only %d contexts enumerated", n)
	}
}

func TestFigure5ExhaustiveRoundTrip(t *testing.T) {
	g, ids := figure4()
	res, err := Encode(g, Options{ForceAnchors: []callgraph.NodeID{ids["C"], ids["D"]}})
	if err != nil {
		t.Fatal(err)
	}
	exhaustiveCheck(t, g, res, 0, 16)
}

// TestInvariantDisjointRanges verifies the Section 3.1 invariant directly:
// for every node and every anchor reaching it, the sub-ranges of its
// incoming edges are pairwise disjoint and contained in [0, ICC[n][r]).
func TestInvariantDisjointRanges(t *testing.T) {
	g, ids := figure4()
	for _, anchors := range [][]callgraph.NodeID{nil, {ids["C"], ids["D"]}, {ids["D"]}} {
		res, err := Encode(g, Options{ForceAnchors: anchors})
		if err != nil {
			t.Fatal(err)
		}
		assertDisjointRanges(t, g, res)
	}
}

func assertDisjointRanges(t *testing.T, g *callgraph.Graph, res *Result) {
	t.Helper()
	rec := g.RecursiveEdges()
	icc := iccMap(res)
	for _, n := range g.Nodes() {
		// Collect, per anchor, the ranges of n's in-edges.
		type rng struct {
			lo, hi uint64
			e      callgraph.Edge
		}
		byAnchor := make(map[callgraph.NodeID][]rng)
		for _, e := range g.ForwardIn(n, rec) {
			av := res.Spec.AV(e)
			for r, w := range icc[e.Caller] {
				// Edge e belongs to r's territory only if r actually
				// reaches it; approximate via NAnchors of the caller
				// and the ICC entry — width w is the range size.
				byAnchor[r] = append(byAnchor[r], rng{lo: av, hi: av + w, e: e})
			}
		}
		for r, ranges := range byAnchor {
			for i := 0; i < len(ranges); i++ {
				for j := i + 1; j < len(ranges); j++ {
					a, b := ranges[i], ranges[j]
					if a.lo < b.hi && b.lo < a.hi {
						t.Errorf("node %s anchor %s: ranges [%d,%d) (%v) and [%d,%d) (%v) overlap",
							g.Name(n), g.Name(r), a.lo, a.hi, a.e, b.lo, b.hi, b.e)
					}
				}
			}
		}
	}
}

// TestPCCEEquivalenceNoVirtual: with no virtual sites and no recursion,
// DeltaPath's ICC equals PCCE's NC on every node (Section 3.1: "when there
// is no virtual function in a program, ICC[n] = NC[n]").
func TestPCCEEquivalenceNoVirtual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40), false)
		entry, _ := g.Entry()
		dp, err := Encode(g, Options{})
		if err != nil {
			return false
		}
		pc, err := pcce.Encode(g, pcce.Options{})
		if err != nil {
			return false
		}
		for _, n := range g.Nodes() {
			icc := iccMap(dp)[n][entry]
			if n == entry {
				icc = 1
			}
			if icc != pc.NC[n] {
				t.Logf("seed %d: ICC[%s]=%d NC=%d", seed, g.Name(n), icc, pc.NC[n])
				return false
			}
		}
		// Addition values agree edge by edge.
		for e := range allEdges(g) {
			if dp.Spec.AV(e) != pc.Spec.AV(e) {
				t.Logf("seed %d: AV mismatch on %v: %d vs %d", seed, e, dp.Spec.AV(e), pc.Spec.AV(e))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func allEdges(g *callgraph.Graph) map[callgraph.Edge]bool {
	out := make(map[callgraph.Edge]bool)
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			out[e] = true
		}
	}
	return out
}

// randomDAG builds a random layered DAG; when virtual is set, some sites
// dispatch to several targets.
func randomDAG(rng *rand.Rand, nodes int, virtual bool) *callgraph.Graph {
	g := callgraph.New()
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), false)
	}
	g.SetEntry(0)
	var label int32
	for i := 1; i < nodes; i++ {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			p := callgraph.NodeID(rng.Intn(i))
			if virtual && rng.Intn(3) == 0 && i+1 < nodes {
				// A virtual site in p dispatching to node i and a few
				// other nodes later than p.
				g.AddEdge(p, label, callgraph.NodeID(i))
				extra := 1 + rng.Intn(2)
				for x := 0; x < extra; x++ {
					q := int(p) + 1 + rng.Intn(nodes-int(p)-1)
					g.AddEdge(p, label, callgraph.NodeID(q))
				}
			} else {
				g.AddEdge(p, label, callgraph.NodeID(i))
			}
			label++
		}
	}
	return g
}

// TestPropertyRandomVirtualGraphs is the central correctness property:
// on random graphs with virtual dispatch, every context encodes uniquely
// and decodes exactly.
func TestPropertyRandomVirtualGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(25), true)
		res, err := Encode(g, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		exhaustiveCheck(t, g, res, 0, 12)
		assertDisjointRanges(t, g, res)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySmallWidthAnchors forces overflow anchors with tiny integer
// widths and re-checks correctness.
func TestPropertySmallWidthAnchors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 5+rng.Intn(25), true)
		res, err := Encode(g, Options{MaxID: 255}) // 8-bit encoding space
		if err != nil {
			// Width genuinely too small is a legal outcome; skip.
			return true
		}
		for _, m := range iccMap(res) {
			for _, v := range m {
				if v > 255 {
					t.Logf("seed %d: ICC %d exceeds MaxID", seed, v)
					return false
				}
			}
		}
		if res.MaxID > 254 {
			t.Logf("seed %d: MaxID %d exceeds limit", seed, res.MaxID)
			return false
		}
		exhaustiveCheck(t, g, res, 0, 12)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowAnchorsAdded builds a doubling diamond chain so that a small
// MaxID forces Algorithm 2 to add anchors, then round-trips.
func TestOverflowAnchorsAdded(t *testing.T) {
	g := callgraph.New()
	prev := []callgraph.NodeID{g.AddNode("main", false)}
	g.SetEntry(prev[0])
	var label int32
	for layer := 0; layer < 10; layer++ {
		var cur []callgraph.NodeID
		for i := 0; i < 2; i++ {
			n := g.AddNode(fmt.Sprintf("L%dN%d", layer, i), false)
			cur = append(cur, n)
			for _, p := range prev {
				g.AddEdge(p, label, n)
				label++
			}
		}
		prev = cur
	}
	res, err := Encode(g, Options{MaxID: 63})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverflowAnchors) == 0 {
		t.Fatal("no overflow anchors added despite MaxID 63 on a 2^10-context graph")
	}
	if res.Restarts != len(res.OverflowAnchors) {
		t.Fatalf("restarts %d != anchors %d", res.Restarts, len(res.OverflowAnchors))
	}
	if res.MaxID > 63 {
		t.Fatalf("MaxID %d > 63", res.MaxID)
	}
	exhaustiveCheck(t, g, res, 0, 14)
	// Without a limit, the same graph needs no anchors.
	res2, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.OverflowAnchors) != 0 {
		t.Fatalf("anchors added at full width: %v", res2.OverflowAnchors)
	}
	// Layer k holds 2^k contexts per node; the deepest layer (9) holds
	// 2^9 = 512, so the largest ID is 511.
	if res2.MaxID != 1<<9-1 {
		t.Fatalf("full-width MaxID = %d, want %d", res2.MaxID, 1<<9-1)
	}
}

// TestRecursionWithVirtual mixes a virtual site with a recursive target.
func TestRecursionWithVirtual(t *testing.T) {
	g := callgraph.New()
	mainN := g.AddNode("main", false)
	f := g.AddNode("f", false)
	h := g.AddNode("h", false)
	k := g.AddNode("k", false)
	g.SetEntry(mainN)
	g.AddEdge(mainN, 0, f)
	g.AddEdge(f, 0, h) // virtual site in f...
	g.AddEdge(f, 0, f) // ...dispatching to h and recursively to f
	g.AddEdge(f, 1, k)
	g.AddEdge(h, 0, k)
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// f is a recursive-edge target: it must be a runtime anchor.
	if !res.Spec.Anchors[f] {
		t.Fatal("recursive target f is not a piece-start anchor")
	}
	exhaustiveCheck(t, g, res, 2, 12)
}

// TestEntryInRecursionCycle: the entry itself is re-entered recursively.
func TestEntryInRecursionCycle(t *testing.T) {
	g := callgraph.New()
	mainN := g.AddNode("main", false)
	f := g.AddNode("f", false)
	g.SetEntry(mainN)
	g.AddEdge(mainN, 0, f)
	g.AddEdge(f, 0, mainN) // back to main: main and f share an SCC
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spec.Anchors[mainN] {
		t.Fatal("recursively re-entered entry must be a runtime anchor")
	}
	exhaustiveCheck(t, g, res, 2, 10)
}

func TestWidthTooSmallError(t *testing.T) {
	// One caller with three distinct call sites to the same callee needs
	// an encoding space of 3 at the callee even when the caller is an
	// anchor, so MaxID 1 is fundamentally insufficient — anchoring cannot
	// split pressure that originates within a single territory.
	g := callgraph.New()
	mainN := g.AddNode("main", false)
	p := g.AddNode("p", false)
	sink := g.AddNode("sink", false)
	g.SetEntry(mainN)
	g.AddEdge(mainN, 0, p)
	g.AddEdge(p, 0, sink)
	g.AddEdge(p, 1, sink)
	g.AddEdge(p, 2, sink)
	if _, err := Encode(g, Options{MaxID: 1}); err == nil {
		t.Fatal("expected width-too-small error")
	}
	// MaxID 3 suffices (three unit-width ranges after anchoring p).
	if _, err := Encode(g, Options{MaxID: 3}); err != nil {
		t.Fatalf("MaxID 3 should suffice: %v", err)
	}
}

func TestNoEntryRejected(t *testing.T) {
	g := callgraph.New()
	g.AddNode("A", false)
	if _, err := Encode(g, Options{}); err == nil {
		t.Fatal("graph without entry accepted")
	}
}

// TestEdgeProfileOrdering: the hottest in-edge of each node is processed
// first and gets addition value 0; correctness is unchanged.
func TestEdgeProfileOrdering(t *testing.T) {
	g, ids := figure4()
	// Profile says CD (normally second, AV 1) is hotter than BD.
	profile := map[callgraph.Edge]uint64{
		{Caller: ids["C"], Callee: ids["D"], Label: 0}: 100,
		{Caller: ids["B"], Callee: ids["D"], Label: 0}: 1,
	}
	res, err := Encode(g, Options{EdgeProfile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if av := res.Spec.SiteValue(callgraph.Site{Caller: ids["C"], Label: 0}); av != 0 {
		t.Fatalf("hot edge CD has AV %d, want 0", av)
	}
	if av := res.Spec.SiteValue(callgraph.Site{Caller: ids["B"], Label: 0}); av == 0 {
		t.Fatal("cold edge BD unexpectedly free")
	}
	exhaustiveCheck(t, g, res, 0, 16)
}

// TestSpecValidateProperty: every spec the algorithm produces passes the
// machine-checked range-disjointness audit; a corrupted spec fails it.
func TestSpecValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 3+rng.Intn(30), true)
		res, err := Encode(g, Options{MaxID: 4095})
		if err != nil {
			return true
		}
		if err := res.Spec.Validate(iccMap(res)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateDetectsCorruption(t *testing.T) {
	g, ids := figure4()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Spec.Validate(iccMap(res)); err != nil {
		t.Fatalf("clean spec rejected: %v", err)
	}
	// Corrupt one addition value so two ranges collide.
	site := callgraph.Site{Caller: ids["F"], Label: 0} // AV[FG] = 9
	res.Spec.SiteAV[g.Numbering().SiteIndex(site)] = 0 // collides with EG's range
	if err := res.Spec.Validate(iccMap(res)); err == nil {
		t.Fatal("corrupted spec passed validation")
	}
}
