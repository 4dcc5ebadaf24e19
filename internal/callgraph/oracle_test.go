package callgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapGraph is the map-backed call graph the dense rows replaced, kept as the
// oracle they are checked against: out and in keyed by NodeID, sites by
// Site, and an edge set for duplicates, with Sites sorting every call.
type mapGraph struct {
	nodes    []Node
	byName   map[string]NodeID
	out      map[NodeID][]Edge
	in       map[NodeID][]Edge
	sites    map[Site][]Edge
	entry    NodeID
	hasEntry bool
	roots    []NodeID
	edgeSet  map[Edge]struct{}
}

func newMapGraph() *mapGraph {
	return &mapGraph{
		byName:  make(map[string]NodeID),
		out:     make(map[NodeID][]Edge),
		in:      make(map[NodeID][]Edge),
		sites:   make(map[Site][]Edge),
		entry:   InvalidNode,
		edgeSet: make(map[Edge]struct{}),
	}
}

func (g *mapGraph) AddNode(name string, library bool) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Library: library})
	g.byName[name] = id
	return id
}

func (g *mapGraph) Name(id NodeID) string {
	if id == InvalidNode {
		return "<invalid>"
	}
	return g.nodes[id].Name
}

func (g *mapGraph) SetEntry(id NodeID) { g.entry, g.hasEntry = id, true }

func (g *mapGraph) MarkContextRoot(n NodeID) {
	if n < 0 || int(n) >= len(g.nodes) {
		return
	}
	for _, r := range g.roots {
		if r == n {
			return
		}
	}
	g.roots = append(g.roots, n)
}

func (g *mapGraph) AddEdge(caller NodeID, label int32, callee NodeID) Edge {
	e := Edge{Caller: caller, Callee: callee, Label: label}
	if _, dup := g.edgeSet[e]; dup {
		return e
	}
	g.edgeSet[e] = struct{}{}
	g.out[caller] = append(g.out[caller], e)
	g.in[callee] = append(g.in[callee], e)
	g.sites[e.Site()] = append(g.sites[e.Site()], e)
	return e
}

func (g *mapGraph) Out(n NodeID) []Edge { return g.out[n] }

func (g *mapGraph) HasEdge(e Edge) bool {
	_, ok := g.edgeSet[e]
	return ok
}

func (g *mapGraph) Sites() []Site {
	out := make([]Site, 0, len(g.sites))
	for s := range g.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func (g *mapGraph) NumVirtualSites() int {
	n := 0
	for _, targets := range g.sites {
		if len(targets) > 1 {
			n++
		}
	}
	return n
}

func (g *mapGraph) Validate() error {
	if !g.hasEntry {
		return fmt.Errorf("callgraph: no entry node set")
	}
	if int(g.entry) >= len(g.nodes) || g.entry < 0 {
		return fmt.Errorf("callgraph: entry node %d out of range", g.entry)
	}
	for e := range g.edgeSet {
		if e.Caller < 0 || int(e.Caller) >= len(g.nodes) {
			return fmt.Errorf("callgraph: edge %v has invalid caller", e)
		}
		if e.Callee < 0 || int(e.Callee) >= len(g.nodes) {
			return fmt.Errorf("callgraph: edge %v has invalid callee", e)
		}
	}
	return nil
}

func (g *mapGraph) Clone() *mapGraph {
	c := newMapGraph()
	c.nodes = append([]Node(nil), g.nodes...)
	c.entry, c.hasEntry = g.entry, g.hasEntry
	c.roots = append([]NodeID(nil), g.roots...)
	for name, id := range g.byName {
		c.byName[name] = id
	}
	for n, edges := range g.out {
		c.out[n] = append([]Edge(nil), edges...)
	}
	for n, edges := range g.in {
		c.in[n] = append([]Edge(nil), edges...)
	}
	for s, edges := range g.sites {
		c.sites[s] = append([]Edge(nil), edges...)
	}
	for e := range g.edgeSet {
		c.edgeSet[e] = struct{}{}
	}
	return c
}

func (g *mapGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph callgraph {\n")
	for _, n := range g.nodes {
		attr := ""
		if n.Library {
			attr = " [color=grey,fontcolor=grey]"
		}
		if g.hasEntry && n.ID == g.entry {
			attr = " [shape=doublecircle]"
		}
		fmt.Fprintf(&b, "  %q%s;\n", n.Name, attr)
	}
	for _, s := range g.Sites() {
		targets := g.sites[s]
		style := ""
		if len(targets) > 1 {
			style = " [style=dashed]"
		}
		for _, e := range targets {
			fmt.Fprintf(&b, "  %q -> %q%s; // label %d\n",
				g.Name(e.Caller), g.Name(e.Callee), style, e.Label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// SCC is Tarjan's algorithm over the map rows, as the dense graph runs it.
func (g *mapGraph) SCC() []int {
	n := len(g.nodes)
	comp := make([]int, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		comp[i], index[i] = -1, -1
	}
	var stack []NodeID
	var next int32
	var ncomp int
	type frame struct {
		v  NodeID
		ei int
	}
	var call []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		call = append(call[:0], frame{v: NodeID(start)})
		index[start], low[start] = next, next
		next++
		stack = append(stack, NodeID(start))
		onStack[start] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			for f.ei < len(g.out[v]) {
				w := g.out[v][f.ei].Callee
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if u := call[len(call)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return comp
}

func (g *mapGraph) RecursiveEdges() map[Edge]bool {
	comp := g.SCC()
	rec := make(map[Edge]bool)
	for e := range g.edgeSet {
		if comp[e.Caller] == comp[e.Callee] {
			rec[e] = true
		}
	}
	return rec
}

func (g *mapGraph) TopoOrder(rec map[Edge]bool) ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for e := range g.edgeSet {
		if !rec[e] {
			indeg[e.Callee]++
		}
	}
	var heap nodeHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for heap.len() > 0 {
		v := heap.pop()
		order = append(order, v)
		for _, e := range g.out[v] {
			if rec[e] {
				continue
			}
			indeg[e.Callee]--
			if indeg[e.Callee] == 0 {
				heap.push(e.Callee)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("callgraph: graph is cyclic after removing %d recursive edges", len(rec))
	}
	return order, nil
}

func (g *mapGraph) ReachableFrom(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	work := []NodeID{start}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.out[v] {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	return seen
}

// mapNumbering builds the numbering the way the analysis layers used to,
// from maps: edge ids by walking the out rows into an edge-to-id map, site
// ids from the sorted site list.
func (g *mapGraph) mapNumbering() *Numbering {
	nn := len(g.nodes)
	nb := &Numbering{
		OutStart: make([]int32, nn+1), NodeSites: make([]int32, nn+1),
		Caller: []int32{}, Callee: []int32{}, Label: []int32{},
		SiteLabel: []int32{}, SiteStart: []int32{}, SiteEdges: []int32{},
	}
	edgeIdx := map[Edge]int32{}
	for n := 0; n < nn; n++ {
		nb.OutStart[n] = int32(len(nb.Callee))
		for _, e := range g.out[NodeID(n)] {
			edgeIdx[e] = int32(len(nb.Callee))
			nb.Caller = append(nb.Caller, int32(e.Caller))
			nb.Callee = append(nb.Callee, int32(e.Callee))
			nb.Label = append(nb.Label, e.Label)
		}
	}
	nb.OutStart[nn] = int32(len(nb.Callee))
	for _, s := range g.Sites() {
		nb.NodeSites[s.Caller+1]++
		nb.SiteLabel = append(nb.SiteLabel, s.Label)
		nb.SiteStart = append(nb.SiteStart, int32(len(nb.SiteEdges)))
		for _, e := range g.sites[s] {
			nb.SiteEdges = append(nb.SiteEdges, edgeIdx[e])
		}
	}
	nb.SiteStart = append(nb.SiteStart, int32(len(nb.SiteEdges)))
	for n := 0; n < nn; n++ {
		nb.NodeSites[n+1] += nb.NodeSites[n]
	}
	return nb
}

// graphPair drives the dense graph and the oracle through the same ops.
type graphPair struct {
	g *Graph
	o *mapGraph
}

// step applies one random op to both graphs: a node (names repeat, so some
// adds return an existing id), an edge among the nodes (few labels, so sites
// collect several targets; self-loops and cycles arise), a repeated edge,
// the entry, or a context root (sometimes an id no node has yet).
func (p graphPair) step(rng *rand.Rand) {
	nn := len(p.o.nodes)
	switch op := rng.Intn(10); {
	case op < 2 || nn == 0:
		name := fmt.Sprintf("m%d", rng.Intn(40))
		lib := rng.Intn(4) == 0
		if a, b := p.g.AddNode(name, lib), p.o.AddNode(name, lib); a != b {
			panic(fmt.Sprintf("AddNode(%q) = %d, oracle %d", name, a, b))
		}
	case op < 8:
		caller, callee := NodeID(rng.Intn(nn)), NodeID(rng.Intn(nn))
		label := int32(rng.Intn(5))
		p.g.AddEdge(caller, label, callee)
		p.o.AddEdge(caller, label, callee)
	case op == 8:
		if len(p.o.edgeSet) > 0 {
			es := p.o.Out(NodeID(rng.Intn(nn)))
			if len(es) > 0 {
				e := es[rng.Intn(len(es))]
				p.g.AddEdge(e.Caller, e.Label, e.Callee)
				p.o.AddEdge(e.Caller, e.Label, e.Callee)
			}
		}
	default:
		n := NodeID(rng.Intn(nn))
		if rng.Intn(2) == 0 {
			p.g.SetEntry(n)
			p.o.SetEntry(n)
		} else {
			if rng.Intn(4) == 0 {
				n = NodeID(nn + rng.Intn(3)) // no node yet: ignored
			}
			p.g.MarkContextRoot(n)
			p.o.MarkContextRoot(n)
		}
	}
}

// compare checks every accessor of p.g against the oracle.
func (p graphPair) compare(t *testing.T) {
	t.Helper()
	g, o := p.g, p.o
	if g.NumNodes() != len(o.nodes) {
		t.Fatalf("NumNodes = %d, oracle %d", g.NumNodes(), len(o.nodes))
	}
	for i, n := range o.nodes {
		if g.Node(NodeID(i)) != n || g.Lookup(n.Name) != n.ID {
			t.Fatalf("node %d = %+v, oracle %+v", i, g.Node(NodeID(i)), n)
		}
	}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, oracle %v", what, got, want)
		}
	}
	edges := func(es []Edge) []Edge { return append([]Edge{}, es...) }
	for n := NodeID(-1); int(n) <= len(o.nodes); n++ {
		same(fmt.Sprintf("Out(%d)", n), edges(g.Out(n)), edges(o.out[n]))
		same(fmt.Sprintf("In(%d)", n), edges(g.In(n)), edges(o.in[n]))
	}
	same("Sites", g.Sites(), o.Sites())
	for _, s := range o.Sites() {
		same(fmt.Sprintf("SiteTargets(%v)", s), edges(g.SiteTargets(s)), edges(o.sites[s]))
		missing := Site{Caller: s.Caller, Label: s.Label + 100}
		same(fmt.Sprintf("SiteTargets(%v)", missing), edges(g.SiteTargets(missing)), []Edge{})
	}
	for e := range o.edgeSet {
		if !g.HasEdge(e) {
			t.Fatalf("HasEdge(%v) = false", e)
		}
		for _, probe := range []Edge{{e.Caller, e.Callee + 1, e.Label}, {e.Caller, e.Callee, e.Label + 1}} {
			same(fmt.Sprintf("HasEdge(%v)", probe), g.HasEdge(probe), o.HasEdge(probe))
		}
	}
	same("NumEdges", g.NumEdges(), len(o.edgeSet))
	same("NumSites", g.NumSites(), len(o.sites))
	same("NumVirtualSites", g.NumVirtualSites(), o.NumVirtualSites())
	same("SCC", g.SCC(), o.SCC())
	rec := o.RecursiveEdges()
	same("RecursiveEdges", g.RecursiveEdges(), rec)
	for _, r := range []map[Edge]bool{nil, rec} {
		gotOrder, gotErr := g.TopoOrder(r)
		wantOrder, wantErr := o.TopoOrder(r)
		same("TopoOrder", gotOrder, wantOrder)
		same("TopoOrder error", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	}
	for n := range o.nodes {
		if n%3 == 0 {
			same(fmt.Sprintf("ReachableFrom(%d)", n), g.ReachableFrom(NodeID(n)), o.ReachableFrom(NodeID(n)))
		}
	}
	same("DOT", g.DOT(), o.DOT())
	same("Validate", fmt.Sprint(g.Validate()), fmt.Sprint(o.Validate()))
	same("ContextRoots", append([]NodeID{}, g.ContextRoots()...), append([]NodeID{}, o.roots...))

	nb, want := g.Numbering(), o.mapNumbering()
	same("Numbering.OutStart", nb.OutStart, want.OutStart)
	same("Numbering edges", [][]int32{nb.Caller, nb.Callee, nb.Label},
		[][]int32{want.Caller, want.Callee, want.Label})
	same("Numbering sites", [][]int32{nb.NodeSites, nb.SiteLabel, nb.SiteStart, nb.SiteEdges},
		[][]int32{want.NodeSites, want.SiteLabel, want.SiteStart, want.SiteEdges})
	for k, s := range o.Sites() {
		same(fmt.Sprintf("Site(%d)", k), nb.Site(int32(k)), s)
		same(fmt.Sprintf("SiteIndex(%v)", s), nb.SiteIndex(s), int32(k))
		same("absent SiteIndex", nb.SiteIndex(Site{Caller: s.Caller, Label: s.Label + 100}), int32(-1))
	}
	for i := int32(0); int(i) < nb.NumEdges(); i++ {
		e := nb.Edge(i)
		same(fmt.Sprintf("EdgeIndex(%v)", e), nb.EdgeIndex(e), i)
		same("absent EdgeIndex", nb.EdgeIndex(Edge{e.Caller, InvalidNode, e.Label}), int32(-1))
	}
	same("SiteIndex out of range", []int32{nb.SiteIndex(Site{Caller: -1}), nb.SiteIndex(Site{Caller: NodeID(len(o.nodes))})},
		[]int32{-1, -1})
}

// TestGraphMatchesMapOracle runs random op sequences through the dense graph
// and the map oracle, clones both midway, keeps mutating the originals and
// the clones independently, and compares every accessor of all four.
func TestGraphMatchesMapOracle(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := graphPair{g: New(), o: newMapGraph()}
		for i := rng.Intn(80); i > 0; i-- {
			a.step(rng)
		}
		a.compare(t)
		b := graphPair{g: a.g.Clone(), o: a.o.Clone()}
		for i := rng.Intn(60); i > 0; i-- {
			a.step(rng)
			b.step(rng)
		}
		a.compare(t)
		b.compare(t)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestMarkContextRootIgnoresNonNodes: marking an id that names no node
// leaves no trace, so a node that later takes the id is recorded once.
func TestMarkContextRootIgnoresNonNodes(t *testing.T) {
	g := New()
	g.MarkContextRoot(0)
	g.MarkContextRoot(-1)
	a := g.AddNode("a", false)
	g.MarkContextRoot(a)
	g.MarkContextRoot(a)
	g.MarkContextRoot(7)
	if got := g.ContextRoots(); !slices.Equal(got, []NodeID{a}) {
		t.Fatalf("ContextRoots = %v, want [%d]", got, a)
	}
}

// TestCloneLeavesOriginalIntact grows a clone's shared rows and checks the
// original still reads what it held before.
func TestCloneLeavesOriginalIntact(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("A", false), g.AddNode("B", false), g.AddNode("C", false)
	g.SetEntry(a)
	g.AddEdge(a, 1, b)
	g.AddEdge(a, 3, b)
	before := g.DOT()
	nb := g.Numbering()
	cl := g.Clone()
	cl.AddEdge(a, 1, c) // grows an existing site of the clone
	cl.AddEdge(a, 2, c) // inserts a site between the clone's two
	cl.AddEdge(c, 0, a)
	if g.DOT() != before || g.NumEdges() != 2 || g.NumVirtualSites() != 0 || g.Numbering() != nb {
		t.Fatalf("mutating a clone changed the original:\n%s", g.DOT())
	}
	if got := cl.Sites(); !slices.Equal(got, []Site{{a, 1}, {a, 2}, {a, 3}, {c, 0}}) {
		t.Fatalf("clone Sites = %v", got)
	}
	if cl.Numbering() == nb {
		t.Fatalf("clone shares the original's numbering after a mutation")
	}
}

// TestAddEdgeNonNodeEndpoints: an edge whose endpoint is not a node is
// recorded without a panic, joins no row, and Validate names the first such
// edge added — every time, not in map order.
func TestAddEdgeNonNodeEndpoints(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge // added in order, after nodes A=0 and B=1
		late  int    // nodes added after the edges
		want  string // Validate's error
	}{
		{"negative caller", []Edge{{-1, 0, 0}}, 0, "edge {-1 0 0} has invalid caller"},
		{"negative callee", []Edge{{0, -5, 2}}, 0, "edge {0 -5 2} has invalid callee"},
		{"too-large caller", []Edge{{1 << 30, 1, 0}}, 0, "edge {1073741824 1 0} has invalid caller"},
		{"too-large callee", []Edge{{1, 2, 7}}, 0, "edge {1 2 7} has invalid callee"},
		{"first of several", []Edge{{0, 1, 0}, {5, 0, 1}, {0, 9, 2}, {-3, 0, 3}, {0, -2, 4}}, 0,
			"edge {5 0 1} has invalid caller"},
		{"endpoint added later", []Edge{{0, 2, 0}}, 1, "edge {0 2 0} was added before its endpoints were nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				g := New()
				g.SetEntry(g.AddNode("A", false))
				g.AddNode("B", false)
				valid := 0
				for _, e := range tc.edges {
					g.AddEdge(e.Caller, e.Label, e.Callee)
					g.AddEdge(e.Caller, e.Label, e.Callee) // duplicates are ignored
					if e.Caller >= 0 && e.Caller < 2 && e.Callee >= 0 && e.Callee < 2 {
						valid++
					}
				}
				for i := 0; i < tc.late; i++ {
					g.AddNode(fmt.Sprintf("late%d", i), false)
				}
				err := g.Validate()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Validate = %v, want %q", err, tc.want)
				}
				if g.NumEdges() != len(tc.edges) {
					t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(tc.edges))
				}
				for _, e := range tc.edges {
					if !g.HasEdge(e) {
						t.Fatalf("HasEdge(%v) = false for a recorded edge", e)
					}
				}
				rows := 0
				for _, n := range g.Nodes() {
					rows += len(g.Out(n))
				}
				if rows != valid || g.Numbering().NumEdges() != valid || len(g.Out(-1)) != 0 {
					t.Fatalf("rows hold %d edges, numbering %d; want the %d valid ones",
						rows, g.Numbering().NumEdges(), valid)
				}
			}
		})
	}
}
