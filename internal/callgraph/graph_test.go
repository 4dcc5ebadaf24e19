package callgraph

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildFigure1 builds the call graph from Figure 1 of the paper:
// A calls B and C; B calls D; C calls D, E, F; D has two sites calling E;
// E calls G; F calls G; C calls G.
func buildFigure1(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New()
	ids := make(map[string]NodeID)
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		ids[name] = g.AddNode(name, false)
	}
	g.SetEntry(ids["A"])
	g.AddEdge(ids["A"], 0, ids["B"])
	g.AddEdge(ids["A"], 1, ids["C"])
	g.AddEdge(ids["B"], 0, ids["D"])
	g.AddEdge(ids["C"], 0, ids["D"])
	g.AddEdge(ids["D"], 0, ids["E"]) // site D
	g.AddEdge(ids["D"], 1, ids["E"]) // site D' (second site calling E)
	g.AddEdge(ids["D"], 2, ids["F"])
	g.AddEdge(ids["C"], 1, ids["F"])
	g.AddEdge(ids["E"], 0, ids["G"])
	g.AddEdge(ids["F"], 0, ids["G"])
	g.AddEdge(ids["C"], 2, ids["G"])
	return g, ids
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("A", true)
	if a != b {
		t.Fatalf("AddNode twice: got %d and %d", a, b)
	}
	if g.Node(a).Library {
		t.Fatalf("second AddNode overwrote Library flag")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestLookup(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	if got := g.Lookup("A"); got != a {
		t.Fatalf("Lookup(A) = %d, want %d", got, a)
	}
	if got := g.Lookup("missing"); got != InvalidNode {
		t.Fatalf("Lookup(missing) = %d, want InvalidNode", got)
	}
	if got := g.Name(InvalidNode); got != "<invalid>" {
		t.Fatalf("Name(InvalidNode) = %q", got)
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	g.AddEdge(a, 0, b)
	g.AddEdge(a, 0, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 {
		t.Fatalf("adjacency lists contain duplicates")
	}
}

func TestSiteTargets(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	c := g.AddNode("C", false)
	g.AddEdge(a, 7, b)
	g.AddEdge(a, 7, c) // same site, virtual dispatch
	g.AddEdge(a, 8, b)
	s := Site{Caller: a, Label: 7}
	targets := g.SiteTargets(s)
	if len(targets) != 2 {
		t.Fatalf("SiteTargets = %d edges, want 2", len(targets))
	}
	if targets[0].Callee != b || targets[1].Callee != c {
		t.Fatalf("SiteTargets order not preserved: %v", targets)
	}
	if g.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2", g.NumSites())
	}
	if g.NumVirtualSites() != 1 {
		t.Fatalf("NumVirtualSites = %d, want 1", g.NumVirtualSites())
	}
}

func TestSitesDeterministicOrder(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	g.AddEdge(b, 5, a)
	g.AddEdge(a, 9, b)
	g.AddEdge(a, 1, b)
	sites := g.Sites()
	want := []Site{{a, 1}, {a, 9}, {b, 5}}
	if len(sites) != len(want) {
		t.Fatalf("Sites len = %d, want %d", len(sites), len(want))
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Fatalf("Sites[%d] = %v, want %v", i, sites[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	g := New()
	if err := g.Validate(); err == nil {
		t.Fatalf("Validate on entry-less graph: want error")
	}
	a := g.AddNode("A", false)
	g.SetEntry(a)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTopoOrderFigure1(t *testing.T) {
	g, ids := buildFigure1(t)
	order, err := g.TopoOrder(nil)
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range g.Nodes() {
		for _, e := range g.Out(n) {
			if pos[e.Caller] >= pos[e.Callee] {
				t.Errorf("edge %s->%s violates topo order", g.Name(e.Caller), g.Name(e.Callee))
			}
		}
	}
	if order[0] != ids["A"] {
		t.Errorf("first node = %s, want A", g.Name(order[0]))
	}
}

func TestTopoOrderCycleDetected(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	g.AddEdge(a, 0, b)
	g.AddEdge(b, 0, a)
	if _, err := g.TopoOrder(nil); err == nil {
		t.Fatalf("TopoOrder on cyclic graph: want error")
	}
	// With recursive edges removed it must succeed.
	rec := g.RecursiveEdges()
	if len(rec) != 2 {
		t.Fatalf("RecursiveEdges = %d, want 2", len(rec))
	}
	if _, err := g.TopoOrder(rec); err != nil {
		t.Fatalf("TopoOrder after removing recursive edges: %v", err)
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	g.AddEdge(a, 0, b)
	g.AddEdge(b, 0, b) // self recursion
	rec := g.RecursiveEdges()
	if len(rec) != 1 {
		t.Fatalf("RecursiveEdges = %v, want only the self loop", rec)
	}
	if !rec[Edge{Caller: b, Callee: b, Label: 0}] {
		t.Fatalf("self loop not classified recursive")
	}
}

func TestSCCComponents(t *testing.T) {
	// A -> B <-> C -> D, and D -> B closes a larger cycle {B, C, D}.
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	c := g.AddNode("C", false)
	d := g.AddNode("D", false)
	g.AddEdge(a, 0, b)
	g.AddEdge(b, 0, c)
	g.AddEdge(c, 0, b)
	g.AddEdge(c, 1, d)
	g.AddEdge(d, 0, b)
	comp := g.SCC()
	if comp[b] != comp[c] || comp[c] != comp[d] {
		t.Fatalf("B, C, D should share a component: %v", comp)
	}
	if comp[a] == comp[b] {
		t.Fatalf("A should be its own component: %v", comp)
	}
	rec := g.RecursiveEdges()
	wantRec := 3 // B->C, C->B, C->D, D->B are intra-SCC... B->C, C->B, C->D, D->B
	if len(rec) != 4 {
		t.Fatalf("RecursiveEdges = %d (%v), want 4", len(rec), rec)
	}
	_ = wantRec
	// A->B crosses components.
	if rec[Edge{Caller: a, Callee: b, Label: 0}] {
		t.Fatalf("A->B wrongly classified recursive")
	}
}

func TestForwardIn(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	g.AddEdge(a, 0, b)
	g.AddEdge(b, 0, b)
	rec := g.RecursiveEdges()
	fwd := g.ForwardIn(b, rec)
	if len(fwd) != 1 || fwd[0].Caller != a {
		t.Fatalf("ForwardIn = %v, want just A->B", fwd)
	}
	// With no recursive set the full in-list is returned.
	if got := g.ForwardIn(b, nil); len(got) != 2 {
		t.Fatalf("ForwardIn(nil) = %v, want both edges", got)
	}
}

func TestReachableFrom(t *testing.T) {
	g, ids := buildFigure1(t)
	r := g.ReachableFrom(ids["C"])
	for _, name := range []string{"C", "D", "E", "F", "G"} {
		if !r[ids[name]] {
			t.Errorf("%s should be reachable from C", name)
		}
	}
	if r[ids["A"]] || r[ids["B"]] {
		t.Errorf("A/B should not be reachable from C")
	}
}

func TestDOT(t *testing.T) {
	g, _ := buildFigure1(t)
	dot := g.DOT()
	if !strings.Contains(dot, `"A" -> "B"`) {
		t.Fatalf("DOT missing edge A->B:\n%s", dot)
	}
	if !strings.Contains(dot, "doublecircle") {
		t.Fatalf("DOT missing entry decoration:\n%s", dot)
	}
}

func TestDOTVirtualDashed(t *testing.T) {
	g := New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", true)
	c := g.AddNode("C", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b)
	g.AddEdge(a, 0, c)
	dot := g.DOT()
	if !strings.Contains(dot, "style=dashed") {
		t.Fatalf("virtual edge not dashed:\n%s", dot)
	}
	if !strings.Contains(dot, "color=grey") {
		t.Fatalf("library node not grey:\n%s", dot)
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(rng *rand.Rand, nodes int) *Graph {
	g := New()
	for i := 0; i < nodes; i++ {
		g.AddNode(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), false)
	}
	g.SetEntry(0)
	var label int32
	for i := 1; i < nodes; i++ {
		// Each node gets 1..3 predecessors among earlier nodes.
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			p := NodeID(rng.Intn(i))
			g.AddEdge(p, label, NodeID(i))
			label++
		}
	}
	return g
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(60))
		order, err := g.TopoOrder(nil)
		if err != nil {
			return false
		}
		pos := make(map[NodeID]int)
		for i, n := range order {
			pos[n] = i
		}
		for _, n := range g.Nodes() {
			for _, e := range g.Out(n) {
				if pos[e.Caller] >= pos[e.Callee] {
					return false
				}
			}
		}
		return len(order) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCPropertyRecursiveRemovalAcyclic(t *testing.T) {
	// Take a random DAG, add random extra edges (possibly creating cycles);
	// removing RecursiveEdges must always restore acyclicity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40))
		n := g.NumNodes()
		extra := rng.Intn(2 * n)
		var label int32 = 1000
		for i := 0; i < extra; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), label, NodeID(rng.Intn(n)))
			label++
		}
		rec := g.RecursiveEdges()
		_, err := g.TopoOrder(rec)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNumberingSharedAcrossReaders: goroutines reading one graph — taking
// its numbering, walking its rows — while others clone it and grow their
// clones all see one numbering and the original's rows unchanged. Run under
// -race (make race) this also checks the numbering's publication.
func TestNumberingSharedAcrossReaders(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), 300)
	want := g.DOT()
	const readers = 4
	got := make([]*Numbering, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Numbering()
			for _, n := range g.Nodes() {
				_ = g.Out(n)
				_ = g.In(n)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			c := g.Clone()
			a := c.AddNode("clone-only", false)
			for _, n := range c.Nodes()[:50] {
				c.AddEdge(n, int32(i), a)
				c.AddEdge(n, 0, a) // joins an existing site of n
			}
			c.Numbering()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("reader %d got a different numbering", i)
		}
	}
	if g.DOT() != want || g.Numbering() != got[0] {
		t.Fatalf("growing clones changed the original")
	}
}
