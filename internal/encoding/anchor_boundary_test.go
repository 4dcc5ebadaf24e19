package encoding_test

// Anchor-selection boundary tests: synthetic graphs whose path counts sit
// exactly at, one below, and one above the encoding-space capacity, pinning
// Algorithm 2's overflow check (calculateIncrement: w > maxID-a). The
// external test package exercises core and encoding exactly as callers do.

import (
	"fmt"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/core"
	"deltapath/internal/encoding"
)

// ladder builds a DAG of k rungs with two parallel edges (distinct labels)
// per rung: 2^k distinct entry-to-end paths, the densest path growth per
// node. Capacity boundary: the graph encodes without anchors iff
// maxID >= 2^k.
func ladder(k int) *callgraph.Graph {
	g := callgraph.New()
	prev := g.AddNode("n0", false)
	g.SetEntry(prev)
	for i := 1; i <= k; i++ {
		n := g.AddNode(fmt.Sprintf("n%d", i), false)
		g.AddEdge(prev, 0, n)
		g.AddEdge(prev, 1, n)
		prev = n
	}
	return g
}

// fan builds entry -> mid_i -> sink for m mids: m paths through one shared
// sink, the shape where one hot node aggregates all pressure. Capacity
// boundary: anchors appear iff maxID < m.
func fan(m int) *callgraph.Graph {
	g := callgraph.New()
	entry := g.AddNode("entry", false)
	g.SetEntry(entry)
	sink := g.AddNode("sink", false)
	for i := 0; i < m; i++ {
		mid := g.AddNode(fmt.Sprintf("mid%d", i), false)
		g.AddEdge(entry, int32(i), mid)
		g.AddEdge(mid, 0, sink)
	}
	return g
}

func TestAnchorBoundary(t *testing.T) {
	const k = 4 // ladder: 2^4 = 16 paths
	const m = 8 // fan: 8 paths
	tests := []struct {
		name        string
		graph       *callgraph.Graph
		maxID       uint64
		wantAnchors bool
	}{
		{"ladder/at-capacity", ladder(k), 16, false},
		{"ladder/one-below", ladder(k), 15, true},
		{"ladder/one-above", ladder(k), 17, false},
		{"fan/at-capacity", fan(m), 8, false},
		{"fan/one-below", fan(m), 7, true},
		{"fan/one-above", fan(m), 9, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := core.Encode(tt.graph, core.Options{MaxID: tt.maxID})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.OverflowAnchors) > 0; got != tt.wantAnchors {
				t.Fatalf("anchors = %v (%d), want anchors %v at maxID=%d",
					res.OverflowAnchors, len(res.OverflowAnchors), tt.wantAnchors, tt.maxID)
			}
			// The encoding space must respect the budget whether or not
			// anchors were needed.
			if res.MaxID > tt.maxID {
				t.Fatalf("res.MaxID = %d exceeds budget %d", res.MaxID, tt.maxID)
			}
			verifyAllPaths(t, tt.graph, res.Spec, tt.maxID)
		})
	}
}

// TestAnchorBoundaryExactCounts pins the deterministic anchor counts just
// below capacity: the fan needs one anchor at m-1 and two at m-2 (each
// anchor removes one unit of pressure at the shared sink).
func TestAnchorBoundaryExactCounts(t *testing.T) {
	for _, tt := range []struct {
		maxID uint64
		want  int
	}{{7, 1}, {6, 2}} {
		res, err := core.Encode(fan(8), core.Options{MaxID: tt.maxID})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OverflowAnchors) != tt.want {
			t.Errorf("fan(8) maxID=%d: %d anchors, want %d", tt.maxID, len(res.OverflowAnchors), tt.want)
		}
	}
}

// verifyAllPaths enumerates every entry-to-leaf path, simulates the runtime
// encoding along it (Add per edge, PushAnchor on anchor entry), asserts the
// running ID never exceeds the budget — the no-addend-overflow property the
// anchors exist to guarantee — and decodes the final state back to the
// exact path.
func verifyAllPaths(t *testing.T, g *callgraph.Graph, spec *encoding.Spec, maxID uint64) {
	t.Helper()
	entry, ok := g.Entry()
	if !ok {
		t.Fatal("graph has no entry")
	}
	dec := encoding.Compile(spec)
	seen := map[string]bool{}
	paths := 0

	var walk func(st *encoding.State, node callgraph.NodeID, path []callgraph.NodeID)
	walk = func(st *encoding.State, node callgraph.NodeID, path []callgraph.NodeID) {
		out := g.Out(node)
		if len(out) == 0 {
			paths++
			key := st.Key(node)
			if seen[key] {
				t.Fatalf("two paths share state key %q: encoding is ambiguous", key)
			}
			seen[key] = true
			frames, err := dec.Decode(st, node)
			if err != nil {
				t.Fatalf("decode at %s: %v", g.Name(node), err)
			}
			if len(frames) != len(path) {
				t.Fatalf("decoded %d frames, path has %d nodes", len(frames), len(path))
			}
			for i, f := range frames {
				if f.Node != path[i] {
					t.Fatalf("frame %d: decoded %s, path has %s", i, g.Name(f.Node), g.Name(path[i]))
				}
			}
			return
		}
		for _, e := range out {
			next := st.Snapshot()
			next.Add(spec.AV(e))
			if next.ID > maxID {
				t.Fatalf("ID %d exceeds budget %d after edge %v", next.ID, maxID, e)
			}
			if spec.Anchors[e.Callee] {
				next.PushAnchor(e.Callee)
			}
			walk(next, e.Callee, append(path[:len(path):len(path)], e.Callee))
		}
	}
	walk(encoding.NewState(entry), entry, []callgraph.NodeID{entry})

	// Exhaustiveness: the walk must have visited every distinct path.
	want := countPaths(g, entry)
	if paths != want {
		t.Fatalf("verified %d paths, graph has %d", paths, want)
	}
}

func countPaths(g *callgraph.Graph, n callgraph.NodeID) int {
	out := g.Out(n)
	if len(out) == 0 {
		return 1
	}
	total := 0
	for _, e := range out {
		total += countPaths(g, e.Callee)
	}
	return total
}
