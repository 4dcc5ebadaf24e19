// Package cct implements dynamic calling context trees — the related-work
// representation the paper positions encoding against (Section 7, citing
// Ammons et al. and Zhuang et al.): every distinct calling context is a
// tree node, maintained eagerly as the program runs by moving a cursor down
// on calls and up on returns.
//
// A CCT answers the same queries as an encoding (what is the current
// context? how often did each context occur?) but trades the encoding's
// O(1)-integer state for a pointer into a tree that must be kept in sync at
// every call and return, and whose size is the number of distinct contexts.
// BenchmarkAblationCCT quantifies the trade against DeltaPath on the same
// workloads.
package cct

import (
	"fmt"
	"sort"
	"strings"

	"deltapath/internal/minivm"
)

// Node is one calling context: the path from the root to this node.
type Node struct {
	// Frame is the method of this node.
	Frame minivm.MethodRef
	// Count is how many times this exact context was current at a query
	// point.
	Count uint64
	// Calls is how many times this context was entered.
	Calls uint64

	parent   *Node
	children map[callKey]*Node
}

// callKey identifies a child context: the call site and the dispatched
// target, as the ids the tree resolved them to. A virtual site that reaches
// several targets gets one child per target.
type callKey struct{ site, target int32 }

// Path returns the context from the root to n.
func (n *Node) Path() []minivm.MethodRef {
	var out []minivm.MethodRef
	for cur := n; cur != nil; cur = cur.parent {
		out = append(out, cur.Frame)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Tree is a calling context tree rooted at the program entry.
type Tree struct {
	root  *Node
	nodes int

	cursor *Node

	// The ids handed to the VM: every call site and method the VM resolves
	// gets the next id; methods maps a method id back to its ref.
	siteID   map[minivm.SiteRef]int32
	methodID map[minivm.MethodRef]int32
	methods  []minivm.MethodRef
}

// New creates a tree rooted at the entry method.
func New(entry minivm.MethodRef) *Tree {
	root := &Node{Frame: entry, children: make(map[callKey]*Node)}
	return &Tree{
		root:     root,
		nodes:    1,
		cursor:   root,
		siteID:   make(map[minivm.SiteRef]int32),
		methodID: make(map[minivm.MethodRef]int32),
	}
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Cursor returns the node for the current context.
func (t *Tree) Cursor() *Node { return t.cursor }

// Nodes reports the number of distinct contexts materialized.
func (t *Tree) Nodes() int { return t.nodes }

// MaxDepth reports the deepest context (root = depth 1).
func (t *Tree) MaxDepth() int {
	var walk func(n *Node, d int) int
	walk = func(n *Node, d int) int {
		max := d
		for _, c := range n.children {
			if v := walk(c, d+1); v > max {
				max = v
			}
		}
		return max
	}
	return walk(t.root, 1)
}

// Mark counts the current context as observed at a query point (the CCT
// analog of recording an encoding at an emit).
func (t *Tree) Mark() { t.cursor.Count++ }

// ResolveMethod implements minivm.Probes.
func (t *Tree) ResolveMethod(m minivm.MethodRef) int32 {
	id, ok := t.methodID[m]
	if !ok {
		id = int32(len(t.methods))
		t.methodID[m] = id
		t.methods = append(t.methods, m)
	}
	return id
}

// ResolveSite implements minivm.Probes.
func (t *Tree) ResolveSite(s minivm.SiteRef) int32 {
	id, ok := t.siteID[s]
	if !ok {
		id = int32(len(t.siteID))
		t.siteID[s] = id
	}
	return id
}

// BeforeCall implements minivm.Probes: descend, creating the child if this
// context is new. This is the eager maintenance cost the paper's encodings
// avoid: a map access and possible allocation at every call.
func (t *Tree) BeforeCall(site, target int32) uint8 {
	k := callKey{site, target}
	child := t.cursor.children[k]
	if child == nil {
		child = &Node{
			Frame:    t.methods[target],
			parent:   t.cursor,
			children: make(map[callKey]*Node),
		}
		t.cursor.children[k] = child
		t.nodes++
	}
	child.Calls++
	t.cursor = child
	return 0
}

// AfterCall implements minivm.Probes: ascend.
func (t *Tree) AfterCall(int32, int32, uint8) {
	if t.cursor.parent != nil {
		t.cursor = t.cursor.parent
	}
}

// Enter implements minivm.Probes (the CCT moves at calls, not entries).
func (t *Tree) Enter(int32) uint8 { return 0 }

// Exit implements minivm.Probes.
func (t *Tree) Exit(int32, uint8) {}

// Hot returns the n contexts with the highest Count, most frequent first.
func (t *Tree) Hot(n int) []*Node {
	var all []*Node
	var walk func(*Node)
	walk = func(node *Node) {
		if node.Count > 0 {
			all = append(all, node)
		}
		for _, c := range node.children {
			walk(c)
		}
	}
	walk(t.root)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return fmt.Sprint(all[i].Path()) < fmt.Sprint(all[j].Path())
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Render returns an indented textual dump (depth-first, sorted by frame
// name for determinism), for debugging and golden tests.
func (t *Tree) Render() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.Frame)
		if n.Count > 0 {
			fmt.Fprintf(&b, " ×%d", n.Count)
		}
		b.WriteByte('\n')
		kids := make([]*Node, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Frame != kids[j].Frame {
				return kids[i].Frame.String() < kids[j].Frame.String()
			}
			return kids[i].Calls > kids[j].Calls
		})
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}

// BeginTask implements minivm.TaskProbes: a new task's contexts hang off
// the root (the tree becomes a forest rooted at the virtual root).
func (t *Tree) BeginTask(minivm.MethodRef) { t.cursor = t.root }

var _ minivm.TaskProbes = (*Tree)(nil)
