package cpt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"deltapath/internal/callgraph"
)

// figure6 builds the static part of Figure 6: A calls B and C; C calls E and
// D; B's virtual call site statically dispatches only to D (the dynamic
// class X is invisible here).
func figure6() (*callgraph.Graph, map[string]callgraph.NodeID) {
	g := callgraph.New()
	ids := make(map[string]callgraph.NodeID)
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		ids[n] = g.AddNode(n, false)
	}
	g.SetEntry(ids["A"])
	g.AddEdge(ids["A"], 0, ids["B"])
	g.AddEdge(ids["A"], 1, ids["C"])
	g.AddEdge(ids["B"], 0, ids["D"]) // the virtual site that X will join
	g.AddEdge(ids["C"], 0, ids["E"])
	g.AddEdge(ids["C"], 1, ids["D"])
	return g, ids
}

func TestFigure6SIDs(t *testing.T) {
	g, ids := figure6()
	plan := Compute(g)
	// Every site is monomorphic, so every node keeps its own set.
	if plan.NumSets != 5 {
		t.Fatalf("NumSets = %d, want 5", plan.NumSets)
	}
	// The hazard check of Figure 6: B's expectation is D's SID; E's SID
	// differs, so reaching E through X is detected as hazardous, while
	// reaching D through X is benign.
	siteB := g.Numbering().SiteIndex(callgraph.Site{Caller: ids["B"], Label: 0})
	if plan.Expected[siteB] != plan.SID[ids["D"]] {
		t.Fatal("expected SID at B's site is not D's SID")
	}
	if plan.Expected[siteB] == plan.SID[ids["E"]] {
		t.Fatal("E's SID equals the expectation: hazard would be missed")
	}
}

func TestVirtualSiteMergesTargets(t *testing.T) {
	g := callgraph.New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	c := g.AddNode("C", false)
	d := g.AddNode("D", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b) // one virtual site dispatching to B and C
	g.AddEdge(a, 0, c)
	g.AddEdge(a, 1, d) // separate site
	plan := Compute(g)
	if plan.SID[b] != plan.SID[c] {
		t.Fatal("dispatch targets of one site must share a SID")
	}
	if plan.SID[b] == plan.SID[d] {
		t.Fatal("unrelated nodes should not share a SID")
	}
	if !plan.SharedSID(g, callgraph.Site{Caller: a, Label: 0}) {
		t.Fatal("SharedSID invariant violated")
	}
}

func TestTransitiveMerge(t *testing.T) {
	// Site 1 dispatches to {B, C}; site 2 dispatches to {C, D}:
	// B, C, D all end in one set.
	g := callgraph.New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	c := g.AddNode("C", false)
	d := g.AddNode("D", false)
	e := g.AddNode("E", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b)
	g.AddEdge(a, 0, c)
	g.AddEdge(e, 0, c)
	g.AddEdge(e, 0, d)
	plan := Compute(g)
	if plan.SID[b] != plan.SID[c] || plan.SID[c] != plan.SID[d] {
		t.Fatalf("transitive merge failed: SIDs %v", plan.SID)
	}
	if plan.SID[a] == plan.SID[b] || plan.SID[e] == plan.SID[b] {
		t.Fatal("callers merged into callee set")
	}
}

// TestPropertySharedSIDInvariant: on random graphs, every site's targets
// share a SID, and nodes never reached by a common site keep distinct SIDs
// unless merged transitively.
func TestPropertySharedSIDInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := callgraph.New()
		n := 3 + rng.Intn(40)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i), false)
		}
		g.SetEntry(0)
		var label int32
		for i := 1; i < n; i++ {
			k := 1 + rng.Intn(3)
			p := callgraph.NodeID(rng.Intn(i))
			for j := 0; j < k; j++ {
				g.AddEdge(p, label, callgraph.NodeID(rng.Intn(n)))
			}
			label++
		}
		plan := Compute(g)
		for _, s := range g.Sites() {
			if !plan.SharedSID(g, s) {
				return false
			}
		}
		// SIDs are dense: 0..NumSets-1 all appear.
		seen := make(map[int32]bool)
		for _, sid := range plan.SID {
			seen[sid] = true
		}
		return len(seen) == plan.NumSets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
