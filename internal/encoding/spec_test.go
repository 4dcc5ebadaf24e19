package encoding

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
)

func TestStateLifecycle(t *testing.T) {
	st := NewState(0)
	if st.Depth() != 1 || st.ID != 0 || st.Start != 0 {
		t.Fatalf("fresh state: %+v", st)
	}
	st.Add(5)
	st.Add(2)
	if st.ID != 7 {
		t.Fatalf("ID = %d, want 7", st.ID)
	}
	st.Sub(2)
	if st.ID != 5 {
		t.Fatalf("ID = %d, want 5", st.ID)
	}
}

func TestPushPopAnchor(t *testing.T) {
	st := NewState(0)
	st.Add(9)
	st.PushAnchor(4)
	if st.ID != 0 || st.Start != 4 || st.Depth() != 2 {
		t.Fatalf("after anchor push: %+v", st)
	}
	st.Add(3)
	el := st.Pop()
	if el.Kind != PieceAnchor || el.DecodeID != 9 || el.OuterEnd != 4 {
		t.Fatalf("popped element: %+v", el)
	}
	if st.ID != 9 || st.Start != 0 || st.Depth() != 1 {
		t.Fatalf("after pop: %+v", st)
	}
}

func TestPushPopRecursion(t *testing.T) {
	st := NewState(0)
	st.Add(2)
	site := callgraph.Site{Caller: 1, Label: 3}
	st.PushCallEdge(PieceRecursion, site, 1)
	if st.ID != 0 || st.Start != 1 {
		t.Fatalf("after recursion push: %+v", st)
	}
	el := st.Pop()
	if el.Kind != PieceRecursion || !el.HasSite || el.Site != site || el.OuterEnd != 1 {
		t.Fatalf("popped: %+v", el)
	}
	if st.ID != 2 {
		t.Fatalf("ID not restored: %d", st.ID)
	}
}

func TestPushUCP(t *testing.T) {
	st := NewState(0)
	st.Add(6)
	site := callgraph.Site{Caller: 2, Label: 0}
	st.PushUCP(site, 4, 2, 7)
	top := st.Stack[len(st.Stack)-1]
	if !top.Gap || top.DecodeID != 4 || top.ResumeID != 6 || top.OuterEnd != 2 {
		t.Fatalf("UCP element: %+v", top)
	}
	if st.Start != 7 || st.ID != 0 {
		t.Fatalf("state after UCP push: %+v", st)
	}
	if st.UCPCount() != 1 {
		t.Fatalf("UCPCount = %d", st.UCPCount())
	}
	st.Pop()
	if st.ID != 6 {
		t.Fatalf("ResumeID not restored: %d", st.ID)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty stack did not panic")
		}
	}()
	NewState(0).Pop()
}

func TestSnapshotIsolated(t *testing.T) {
	st := NewState(0)
	st.PushAnchor(1)
	snap := st.Snapshot()
	st.Pop()
	st.Add(99)
	if snap.ID != 0 || len(snap.Stack) != 1 {
		t.Fatalf("snapshot mutated: %+v", snap)
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := NewState(0)
	a.Add(3)
	b := NewState(0)
	b.Add(3)
	if a.Key(5) != b.Key(5) {
		t.Fatal("identical states produced different keys")
	}
	if a.Key(5) == a.Key(6) {
		t.Fatal("different end nodes share a key")
	}
	b.PushAnchor(2)
	if a.Key(5) == b.Key(5) {
		t.Fatal("different stacks share a key")
	}
}

func TestReset(t *testing.T) {
	st := NewState(0)
	st.Add(3)
	st.PushAnchor(1)
	st.Reset(0)
	if st.ID != 0 || st.Start != 0 || st.Depth() != 1 {
		t.Fatalf("after reset: %+v", st)
	}
}

func TestPieceKindString(t *testing.T) {
	for k, want := range map[PieceKind]string{
		PieceEntry: "entry", PieceAnchor: "anchor", PieceRecursion: "recursion",
		PiecePruned: "pruned", PieceUCP: "ucp", PieceKind(99): "PieceKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("PieceKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSpecAV(t *testing.T) {
	g := callgraph.New()
	a := g.AddNode("a", false)
	b := g.AddNode("b", false)
	g.SetEntry(a)
	e := g.AddEdge(a, 1, b)
	spec := &Spec{
		Graph:  g,
		SiteAV: siteAVs(g, map[callgraph.Site]uint64{{Caller: a, Label: 1}: 7}),
	}
	if spec.AV(e) != 7 {
		t.Fatalf("site-mode AV = %d", spec.AV(e))
	}
	spec.PerEdge = true
	spec.EdgeAV = map[callgraph.Edge]uint64{e: 9}
	if spec.AV(e) != 9 {
		t.Fatalf("edge-mode AV = %d", spec.AV(e))
	}
}

func TestEncodePathRejectsDiscontinuousPath(t *testing.T) {
	g := callgraph.New()
	a := g.AddNode("a", false)
	b := g.AddNode("b", false)
	c := g.AddNode("c", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b)
	e2 := g.AddEdge(b, 0, c)
	spec := &Spec{Graph: g, SiteAV: siteAVs(g, map[callgraph.Site]uint64{})}
	if _, err := EncodePath(spec, []callgraph.Edge{e2}); err == nil {
		t.Fatal("discontinuous path accepted")
	}
}

func TestEncodePathNoEntry(t *testing.T) {
	spec := &Spec{Graph: callgraph.New()}
	if _, err := EncodePath(spec, nil); err == nil {
		t.Fatal("entry-less graph accepted")
	}
}

func TestEnumeratePathsCountsAcyclic(t *testing.T) {
	// Diamond: a->b->d, a->c->d: paths are (), b, c, bd, cd = 5.
	g := callgraph.New()
	a := g.AddNode("a", false)
	b := g.AddNode("b", false)
	c := g.AddNode("c", false)
	d := g.AddNode("d", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b)
	g.AddEdge(a, 1, c)
	g.AddEdge(b, 0, d)
	g.AddEdge(c, 0, d)
	n := 0
	EnumeratePaths(g, 0, 10, func(path []callgraph.Edge) { n++ })
	if n != 5 {
		t.Fatalf("enumerated %d paths, want 5", n)
	}
}

func TestEnumeratePathsRecursionBound(t *testing.T) {
	g := callgraph.New()
	a := g.AddNode("a", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, a)
	var lens []int
	EnumeratePaths(g, 3, 10, func(path []callgraph.Edge) { lens = append(lens, len(path)) })
	// Paths: length 0,1,2,3 — the self loop used at most 3 times.
	if len(lens) != 4 {
		t.Fatalf("paths = %v, want 4 of lengths 0..3", lens)
	}
}

func TestFormatContext(t *testing.T) {
	if got := FormatContext([]string{"a", "b"}); got != "a > b" {
		t.Fatalf("FormatContext = %q", got)
	}
}

// siteAVs lays out per-site addition values as a Spec's SiteAV: indexed by
// g's site ids, 0 for the sites m leaves out.
func siteAVs(g *callgraph.Graph, m map[callgraph.Site]uint64) []uint64 {
	nb := g.Numbering()
	out := make([]uint64, nb.NumSites())
	for s, av := range m {
		out[nb.SiteIndex(s)] = av
	}
	return out
}

// TestSiteAVLength: a SiteAV whose length is not the graph's site count is
// reported by CheckSiteAV, and every reader treats its values as absent
// instead of indexing past it.
func TestSiteAVLength(t *testing.T) {
	spec, ids := diamondSpec()
	if err := spec.CheckSiteAV(); err != nil {
		t.Fatalf("well-formed spec: %v", err)
	}
	n := len(spec.SiteAV)
	for _, av := range [][]uint64{nil, spec.SiteAV[:n-1], append(slices.Clone(spec.SiteAV), 9)} {
		bad := *spec
		bad.SiteAV = av
		want := fmt.Sprintf("SiteAV has %d entries for %d call sites", len(av), n)
		if err := bad.CheckSiteAV(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("length %d: CheckSiteAV = %v", len(av), err)
		}
		path := []callgraph.Edge{{Caller: ids["a"], Label: 1, Callee: ids["c"]}, {Caller: ids["c"], Callee: ids["d"]}}
		st, err := EncodePath(&bad, path)
		if err != nil || st.ID != 0 {
			t.Errorf("length %d: EncodePath = %v, %v", len(av), st, err)
		}
		if _, err := Compile(&bad).Decode(st, ids["d"]); err != nil {
			t.Errorf("length %d: compiled decode: %v", len(av), err)
		}
	}
	perEdge := &Spec{Graph: spec.Graph, PerEdge: true, SiteAV: spec.SiteAV}
	if err := perEdge.CheckSiteAV(); err == nil {
		t.Error("a per-edge spec with site addition values passed CheckSiteAV")
	}
}
