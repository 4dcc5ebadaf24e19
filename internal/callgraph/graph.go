// Package callgraph defines the call-graph intermediate representation used
// by every encoding algorithm in this repository (PCCE, DeltaPath Algorithm 1
// and Algorithm 2, and call path tracking).
//
// A graph is a set of nodes (functions/methods) and directed edges. Following
// Section 3.1 of the DeltaPath paper, an edge is a triple ⟨caller, callee,
// label⟩ where ⟨caller, label⟩ identifies a call site; several edges may share
// one call site, which is exactly how virtual dispatch is modelled: one site,
// many callee targets.
//
// The package also provides the graph algorithms the encodings depend on:
// deterministic topological ordering, Tarjan strongly-connected components,
// and the classification of recursive (intra-SCC) edges that must be excluded
// from Ball–Larus-style numbering.
package callgraph

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node (a function or method) within one Graph.
// IDs are dense: 0..NumNodes()-1.
type NodeID int32

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Node is a function or method in the program under analysis.
type Node struct {
	ID NodeID
	// Name is the fully qualified method name, e.g. "spec.Main.run".
	Name string
	// Library marks nodes excluded under the encoding-application setting
	// (Section 4.2, "flexible encoding"). Library nodes stay in the graph
	// so that call path tracking can reason about paths through them, but
	// the selective-encoding builders strip them.
	Library bool
}

// Site identifies a call site: a position (Label) inside a caller method.
// In Java the label would be the bytecode index of the invoke instruction;
// in the minivm it is the instruction's site number within the method.
type Site struct {
	Caller NodeID
	Label  int32
}

func (s Site) String() string { return fmt.Sprintf("site(%d@%d)", s.Caller, s.Label) }

// Edge is a directed call edge ⟨Caller, Callee, Label⟩.
type Edge struct {
	Caller NodeID
	Callee NodeID
	Label  int32
}

// Site returns the call site this edge originates from.
func (e Edge) Site() Site { return Site{Caller: e.Caller, Label: e.Label} }

// Graph is a call graph. The zero value is not usable; call New.
//
// Storage is dense: every per-node row is a slice indexed by NodeID, and the
// only map is the name index.
//   - Out(n) and In(n) are n's out- and in-edges in insertion order. Edge
//     insertion order is significant: the encoding algorithms process a
//     node's incoming edges in insertion order, which is the order the static
//     analyser discovered them, mirroring the deterministic traversal the
//     paper assumes.
//   - Each caller keeps its call sites sorted by label, and each site keeps
//     its dispatch targets in insertion order. Sites walks the callers in
//     NodeID order, so it yields (caller, label) order without sorting, and
//     SiteTargets, HasEdge and AddEdge's duplicate check find a site by
//     binary search within its caller.
//   - Numbering derives the dense edge and site ids the analysis layers
//     share (see Numbering).
//
// An edge whose caller or callee is not a node when it is added joins no
// row: it is recorded only so that NumEdges and HasEdge count it and
// Validate names it.
//
// A Graph is safe for concurrent readers as long as nobody mutates it.
// Clone shares the edge arrays of the rows with the original, capped at
// their current length, so an append on either side writes only where the
// other does not read; everything else a mutation writes is copied.
type Graph struct {
	nodes  []Node
	byName map[string]NodeID

	rows []nodeRow

	numEdges, numSites int

	// invalid lists, in insertion order, the edges with an endpoint that
	// was not a node when they were added.
	invalid []Edge

	entry    NodeID
	hasEntry bool

	// roots are additional context roots besides the entry: methods at
	// which calling contexts can begin (executor-task entries). Encoding
	// algorithms treat them as piece-start anchors.
	roots []NodeID

	// num caches the numbering of the current rows; every mutation clears
	// it. It is published atomically for concurrent readers.
	num atomic.Pointer[Numbering]
}

// nodeRow is one node's adjacency: its out- and in-edges in insertion
// order, and the call sites it is the caller of, sorted by label. root
// records that the node is in roots, so marking one is O(1).
type nodeRow struct {
	out, in []Edge
	sites   []siteRow
	root    bool
}

// siteRow is one call site of a caller: its label and its dispatch target
// edges in insertion order. A monomorphic (static) site has one target; a
// virtual site has one per possible dispatch target.
type siteRow struct {
	label   int32
	targets []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID), entry: InvalidNode}
}

// AddNode inserts a node with the given name and returns its ID.
// Adding a name twice returns the existing ID (the Library flag of the
// first insertion wins).
func (g *Graph) AddNode(name string, library bool) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Library: library})
	g.byName[name] = id
	g.rows = append(g.rows, nodeRow{})
	g.dropNumbering()
	return id
}

// dropNumbering clears the cached numbering after a mutation. Only a cached
// one is stored over: an atomic store costs a write barrier, and a graph
// being built (analysisio.Load, cha.Build) has none cached.
func (g *Graph) dropNumbering() {
	if g.num.Load() != nil {
		g.num.Store(nil)
	}
}

// Lookup returns the node ID for name, or InvalidNode.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// Node returns the node with the given ID. It panics on an invalid ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Name returns the node's name, or "<invalid>" for InvalidNode.
func (g *Graph) Name(id NodeID) string {
	if id == InvalidNode {
		return "<invalid>"
	}
	return g.nodes[id].Name
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return g.numEdges + len(g.invalid) }

// SetEntry declares the program entry node (the paper's "main").
func (g *Graph) SetEntry(id NodeID) {
	g.entry = id
	g.hasEntry = true
}

// Entry returns the entry node. The second result reports whether one was set.
func (g *Graph) Entry() (NodeID, bool) { return g.entry, g.hasEntry }

// MarkContextRoot declares node n an additional context root: calling
// contexts may begin there (an executor-task entry). Idempotent and O(1);
// an id that names no node is ignored.
func (g *Graph) MarkContextRoot(n NodeID) {
	if !g.isNode(n) || g.rows[n].root {
		return
	}
	g.rows[n].root = true
	g.roots = append(g.roots, n)
}

// ContextRoots returns the additional context roots in marking order.
func (g *Graph) ContextRoots() []NodeID { return g.roots }

// isNode reports whether n names a node.
func (g *Graph) isNode(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// findSite returns the position of label in a caller's site row, or where
// it would be inserted, and whether it is there.
func findSite(row []siteRow, label int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].label < label {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].label == label
}

// AddEdge inserts the edge ⟨caller, callee, label⟩. Duplicate edges are
// ignored. It returns the edge.
func (g *Graph) AddEdge(caller NodeID, label int32, callee NodeID) Edge {
	e := Edge{Caller: caller, Callee: callee, Label: label}
	if len(g.invalid) > 0 && slices.Contains(g.invalid, e) {
		return e
	}
	if !g.isNode(caller) || !g.isNode(callee) {
		g.invalid = append(g.invalid, e)
		return e
	}
	from := &g.rows[caller]
	row := from.sites
	i, found := findSite(row, label)
	if found {
		site := &row[i]
		for _, t := range site.targets {
			if t.Callee == callee {
				return e
			}
		}
		site.targets = append(site.targets, e)
	} else {
		from.sites = slices.Insert(row, i, siteRow{label: label, targets: []Edge{e}})
		g.numSites++
	}
	from.out = append(from.out, e)
	to := &g.rows[callee]
	to.in = append(to.in, e)
	g.numEdges++
	g.dropNumbering()
	return e
}

// HasEdge reports whether the exact edge exists.
func (g *Graph) HasEdge(e Edge) bool {
	for _, t := range g.SiteTargets(e.Site()) {
		if t.Callee == e.Callee {
			return true
		}
	}
	return len(g.invalid) > 0 && slices.Contains(g.invalid, e)
}

// Out returns the outgoing edges of n in insertion order.
// The returned slice must not be modified.
func (g *Graph) Out(n NodeID) []Edge {
	if !g.isNode(n) {
		return nil
	}
	return g.rows[n].out
}

// In returns the incoming edges of n in insertion order.
// The returned slice must not be modified.
func (g *Graph) In(n NodeID) []Edge {
	if !g.isNode(n) {
		return nil
	}
	return g.rows[n].in
}

// SiteTargets returns the dispatch target edges of a call site, in insertion
// order. The returned slice must not be modified.
func (g *Graph) SiteTargets(s Site) []Edge {
	if !g.isNode(s.Caller) {
		return nil
	}
	row := g.rows[s.Caller].sites
	if i, ok := findSite(row, s.Label); ok {
		return row[i].targets
	}
	return nil
}

// Sites returns every call site in the graph in a deterministic order
// (by caller ID, then label).
func (g *Graph) Sites() []Site {
	out := make([]Site, 0, g.numSites)
	for n := range g.rows {
		for _, s := range g.rows[n].sites {
			out = append(out, Site{Caller: NodeID(n), Label: s.label})
		}
	}
	return out
}

// NumSites reports the number of distinct call sites.
func (g *Graph) NumSites() int { return g.numSites }

// NumVirtualSites reports the number of call sites with more than one
// dispatch target (the paper's VCS column in Table 1).
func (g *Graph) NumVirtualSites() int {
	n := 0
	for _, r := range g.rows {
		for _, s := range r.sites {
			if len(s.targets) > 1 {
				n++
			}
		}
	}
	return n
}

// Nodes returns all node IDs in increasing order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		ids[i] = NodeID(i)
	}
	return ids
}

// Validate checks structural invariants: an entry is set, the entry has no
// incoming edges is NOT required (recursion to main is legal), but every
// edge endpoint must be a valid node. Of several bad edges it names the
// first added.
func (g *Graph) Validate() error {
	if !g.hasEntry {
		return fmt.Errorf("callgraph: no entry node set")
	}
	if int(g.entry) >= len(g.nodes) || g.entry < 0 {
		return fmt.Errorf("callgraph: entry node %d out of range", g.entry)
	}
	if len(g.invalid) > 0 {
		e := g.invalid[0]
		switch {
		case !g.isNode(e.Caller):
			return fmt.Errorf("callgraph: edge %v has invalid caller", e)
		case !g.isNode(e.Callee):
			return fmt.Errorf("callgraph: edge %v has invalid callee", e)
		default:
			return fmt.Errorf("callgraph: edge %v was added before its endpoints were nodes", e)
		}
	}
	return nil
}

// Clone returns a copy of the graph that shares no mutable state with the
// original, so incremental builders (cha.Extend) can append nodes and edges
// to the clone while readers of the original — decoders pinned to an older
// analysis epoch — keep traversing it concurrently. The copy shares the
// rows' edge arrays, capped at their length (see Graph).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:    slices.Clip(g.nodes),
		byName:   make(map[string]NodeID, len(g.byName)),
		rows:     make([]nodeRow, len(g.rows)),
		numEdges: g.numEdges,
		numSites: g.numSites,
		invalid:  slices.Clip(g.invalid),
		entry:    g.entry,
		hasEntry: g.hasEntry,
		roots:    slices.Clip(g.roots),
	}
	for name, id := range g.byName {
		c.byName[name] = id
	}
	for n, r := range g.rows {
		cr := &c.rows[n]
		cr.out, cr.in, cr.root = slices.Clip(r.out), slices.Clip(r.in), r.root
		if len(r.sites) > 0 {
			cr.sites = make([]siteRow, len(r.sites))
			for i, s := range r.sites {
				cr.sites[i] = siteRow{label: s.label, targets: slices.Clip(s.targets)}
			}
		}
	}
	return c
}

// DOT renders the graph in Graphviz dot format, with virtual sites drawn as
// dashed edges and library nodes in grey. Useful for debugging analyses.
func (g *Graph) DOT() string {
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
	for _, r := range g.rows {
		for _, s := range r.sites {
			style := ""
			if len(s.targets) > 1 {
				style = " [style=dashed]"
			}
			for _, e := range s.targets {
				fmt.Fprintf(&b, "  %q -> %q%s; // label %d\n",
					g.Name(e.Caller), g.Name(e.Callee), style, e.Label)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
