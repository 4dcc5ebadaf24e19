package pcce

import (
	"fmt"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// figure1 builds the exact graph of Figure 1 of the DeltaPath paper, with
// incoming edges inserted in the order that reproduces the figure's
// addition values.
func figure1() (*callgraph.Graph, map[string]callgraph.NodeID) {
	g := callgraph.New()
	ids := make(map[string]callgraph.NodeID)
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		ids[n] = g.AddNode(n, false)
	}
	g.SetEntry(ids["A"])
	g.AddEdge(ids["A"], 0, ids["B"]) // AB
	g.AddEdge(ids["A"], 1, ids["C"]) // AC
	g.AddEdge(ids["B"], 0, ids["D"]) // BD (first in-edge of D)
	g.AddEdge(ids["C"], 0, ids["D"]) // CD
	g.AddEdge(ids["D"], 0, ids["E"]) // DE (first in-edge of E)
	g.AddEdge(ids["D"], 1, ids["E"]) // D'E (second site in D calling E)
	g.AddEdge(ids["D"], 2, ids["F"]) // DF (first in-edge of F)
	g.AddEdge(ids["C"], 1, ids["F"]) // CF
	g.AddEdge(ids["E"], 0, ids["G"]) // EG (first in-edge of G)
	g.AddEdge(ids["F"], 0, ids["G"]) // FG
	g.AddEdge(ids["C"], 2, ids["G"]) // CG
	return g, ids
}

func TestFigure1NC(t *testing.T) {
	g, ids := figure1()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"A": 1, "B": 1, "C": 1, "D": 2, "E": 4, "F": 3, "G": 8}
	for name, nc := range want {
		if got := res.NC[ids[name]]; got != nc {
			t.Errorf("NC[%s] = %d, want %d", name, got, nc)
		}
	}
}

func TestFigure1AdditionValues(t *testing.T) {
	g, ids := figure1()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	av := func(from string, label int32, to string) uint64 {
		return res.Spec.EdgeAV[callgraph.Edge{Caller: ids[from], Callee: ids[to], Label: label}]
	}
	cases := []struct {
		from  string
		label int32
		to    string
		want  uint64
	}{
		{"A", 0, "B", 0},
		{"A", 1, "C", 0},
		{"B", 0, "D", 0},
		{"C", 0, "D", 1},
		{"D", 0, "E", 0}, // DE
		{"D", 1, "E", 2}, // D'E — the figure's "+2"
		{"D", 2, "F", 0}, // DF
		{"C", 1, "F", 2}, // CF — the figure's "+2"
		{"E", 0, "G", 0}, // EG
		{"F", 0, "G", 4}, // FG — the figure's "+4"
		{"C", 2, "G", 7}, // CG — the figure's "+7"
	}
	for _, c := range cases {
		if got := av(c.from, c.label, c.to); got != c.want {
			t.Errorf("AV[%s->%s (label %d)] = %d, want %d", c.from, c.to, c.label, got, c.want)
		}
	}
}

// TestFigure1Encodings checks the encoding table printed in Figure 1,
// including the worked example ACFG = 6.
func TestFigure1Encodings(t *testing.T) {
	g, _ := figure1()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	name := func(id callgraph.NodeID) string { return g.Name(id) }
	// A node sequence like ABDE can arise through either of D's two sites
	// calling E, with distinct encodings; collect the set of IDs per
	// sequence.
	got := make(map[string]map[uint64]bool)
	encoding.EnumeratePaths(g, 0, 16, func(path []callgraph.Edge) {
		st, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, n := range encoding.PathNodes(g, path) {
			sb.WriteString(name(n))
		}
		if len(st.Stack) != 0 {
			t.Fatalf("acyclic context %s produced stack depth %d", sb.String(), st.Depth())
		}
		if got[sb.String()] == nil {
			got[sb.String()] = make(map[uint64]bool)
		}
		got[sb.String()][st.ID] = true
	})
	want := map[string]uint64{
		"ACFG":  6,
		"AB":    0,
		"AC":    0,
		"ABD":   0,
		"ACD":   1,
		"ABDE":  0, // via DE
		"ACDE":  1, // via DE
		"ABDF":  0,
		"ACF":   2,
		"ABDFG": 4,
		"ACG":   7,
	}
	for ctx, id := range want {
		if !got[ctx][id] {
			t.Errorf("encodings of %s = %v, want to include %d", ctx, got[ctx], id)
		}
	}
	if res.MaxID != 7 {
		t.Errorf("MaxID = %d, want 7 (NC[G]-1)", res.MaxID)
	}
}

// TestFigure1DecodeWorkedExample follows Section 2's decoding walk-through:
// ID 6 at node G decodes to A C F G.
func TestFigure1DecodeWorkedExample(t *testing.T) {
	g, ids := figure1()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := encoding.Compile(res.Spec)
	st := encoding.NewState(ids["A"])
	st.ID = 6
	names, err := dec.DecodeNames(st, ids["G"])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, "") != "ACFG" {
		t.Fatalf("decode(6@G) = %v, want ACFG", names)
	}
}

// TestExhaustiveUniqueRoundTrip checks, over every context of Figure 1,
// that encodings are unique per ending node and decode back exactly.
func TestExhaustiveUniqueRoundTrip(t *testing.T) {
	g, _ := figure1()
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := encoding.Compile(res.Spec)
	seen := make(map[string]string)
	count := 0
	encoding.EnumeratePaths(g, 0, 16, func(path []callgraph.Edge) {
		count++
		st, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatal(err)
		}
		nodes := encoding.PathNodes(g, path)
		end := nodes[len(nodes)-1]
		var want []string
		for _, n := range nodes {
			want = append(want, g.Name(n))
		}
		wantStr := strings.Join(want, ">")
		// Contexts traversing distinct site labels (D->E vs D'->E) share
		// node sequences but must still decode to the same node sequence;
		// uniqueness is over (encoding key) -> node sequence.
		key := st.Key(end)
		if prev, dup := seen[key]; dup && prev != wantStr {
			t.Fatalf("encoding collision: key %q is %s and %s", key, prev, wantStr)
		}
		seen[key] = wantStr
		names, err := dec.DecodeNames(st, end)
		if err != nil {
			t.Fatalf("decode %s: %v", wantStr, err)
		}
		if strings.Join(names, ">") != wantStr {
			t.Fatalf("round trip: got %v, want %s", names, wantStr)
		}
	})
	if count < 20 {
		t.Fatalf("enumerated only %d contexts", count)
	}
}

// TestRecursionRoundTrip builds main -> f -> f (self recursion) -> g and
// checks stacked-piece decoding.
func TestRecursionRoundTrip(t *testing.T) {
	g := callgraph.New()
	mainN := g.AddNode("main", false)
	f := g.AddNode("f", false)
	gg := g.AddNode("g", false)
	g.SetEntry(mainN)
	g.AddEdge(mainN, 0, f)
	g.AddEdge(f, 0, f) // recursive
	g.AddEdge(f, 1, gg)
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := encoding.Compile(res.Spec)
	seen := make(map[string]string)
	encoding.EnumeratePaths(g, 3, 10, func(path []callgraph.Edge) {
		st, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatal(err)
		}
		nodes := encoding.PathNodes(g, path)
		end := nodes[len(nodes)-1]
		var want []string
		for _, n := range nodes {
			want = append(want, g.Name(n))
		}
		wantStr := strings.Join(want, ">")
		key := st.Key(end)
		if prev, dup := seen[key]; dup && prev != wantStr {
			t.Fatalf("collision: %q is %s and %s", key, prev, wantStr)
		}
		seen[key] = wantStr
		names, err := dec.DecodeNames(st, end)
		if err != nil {
			t.Fatalf("decode %s: %v", wantStr, err)
		}
		if strings.Join(names, ">") != wantStr {
			t.Fatalf("round trip: got %v, want %s", names, wantStr)
		}
		// A context main f^k ... must use k-1 recursion pieces.
		recs := 0
		for _, el := range st.Stack {
			if el.Kind == encoding.PieceRecursion {
				recs++
			}
		}
		fCount := strings.Count(wantStr, "f")
		if fCount > 1 && recs != fCount-1 {
			t.Fatalf("%s: recursion pieces = %d, want %d", wantStr, recs, fCount-1)
		}
	})
}

// TestPruningOverflow forces pruning with a tiny MaxID on a diamond chain
// whose context counts double per layer.
func TestPruningOverflow(t *testing.T) {
	g := callgraph.New()
	prev := []callgraph.NodeID{g.AddNode("main", false)}
	g.SetEntry(prev[0])
	var label int32
	// Each layer: two nodes, each called by both nodes of the previous
	// layer; NC doubles per layer.
	for layer := 0; layer < 8; layer++ {
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
	res, err := Encode(g, Options{MaxID: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) == 0 {
		t.Fatal("no edges pruned despite MaxID 15")
	}
	if res.MaxID > 15 {
		t.Fatalf("MaxID = %d exceeds limit 15", res.MaxID)
	}
	for _, nc := range res.NC {
		if nc > 16 {
			t.Fatalf("NC %d exceeds the encodable space", nc)
		}
	}
	// Round trip still exact despite pruning.
	dec := encoding.Compile(res.Spec)
	seen := make(map[string]string)
	checked := 0
	encoding.EnumeratePaths(g, 0, 10, func(path []callgraph.Edge) {
		st, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatal(err)
		}
		nodes := encoding.PathNodes(g, path)
		end := nodes[len(nodes)-1]
		var want []string
		for _, n := range nodes {
			want = append(want, g.Name(n))
		}
		wantStr := strings.Join(want, ">")
		key := st.Key(end)
		if prev, dup := seen[key]; dup && prev != wantStr {
			t.Fatalf("collision after pruning: %q is %s and %s", key, prev, wantStr)
		}
		seen[key] = wantStr
		names, err := dec.DecodeNames(st, end)
		if err != nil {
			t.Fatalf("decode %s: %v", wantStr, err)
		}
		if strings.Join(names, ">") != wantStr {
			t.Fatalf("round trip: got %v, want %s", names, wantStr)
		}
		checked++
	})
	if checked < 100 {
		t.Fatalf("checked only %d contexts", checked)
	}
}

// TestVirtualConflicts verifies PCCE reports sites needing a dispatch
// switch: two edges from one site with different addition values.
func TestVirtualConflicts(t *testing.T) {
	g := callgraph.New()
	a := g.AddNode("A", false)
	b := g.AddNode("B", false)
	c := g.AddNode("C", false)
	d := g.AddNode("D", false)
	g.SetEntry(a)
	g.AddEdge(a, 0, b)
	g.AddEdge(a, 1, c)
	g.AddEdge(b, 0, d) // first in-edge of D: AV 0
	g.AddEdge(c, 0, d) // AV 1
	g.AddEdge(c, 0, b) // same site in C: virtual dispatch to B (AV=1) and D
	res, err := Encode(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualConflicts == 0 {
		t.Fatal("virtual conflict not detected")
	}
	if !res.Spec.PerEdge {
		t.Fatal("PCCE spec must be per-edge")
	}
}

func TestNoEntryRejected(t *testing.T) {
	g := callgraph.New()
	g.AddNode("A", false)
	if _, err := Encode(g, Options{}); err == nil {
		t.Fatal("graph without entry accepted")
	}
}
