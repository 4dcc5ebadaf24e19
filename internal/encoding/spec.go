// Package encoding defines the artifacts shared by every calling-context
// encoding in this repository: the static Spec an encoding algorithm
// produces (addition values, anchors, push edges), the Spec's forward
// in-rows (BuildRows, the arrays both the decoder and the verifier read),
// the runtime State the instrumentation maintains (the encoding ID plus the
// piece stack of Section 3.2/4.1 of the paper), and the precise decoder
// (Compile) that recovers a calling context from a State.
//
// The runtime representation follows the paper exactly: a calling context is
// a stack of pieces. The bottom piece starts at the program entry; a new
// piece starts when
//
//   - an anchor node is invoked (Section 3.2) — the encoding ID is saved and
//     reset so each piece fits in one machine integer,
//   - a recursive call edge is taken (Section 2, following PCCE) — the call
//     site is saved so the cyclic step can be reconstructed, or
//   - a hazardous unexpected call path is detected (Section 4.1) — the saved
//     expectation is pushed and the decoded context shows a gap where the
//     dynamically loaded (unanalysed) frames ran.
package encoding

import (
	"fmt"
	"strings"

	"deltapath/internal/callgraph"
)

// Spec is the output of an encoding algorithm: everything the runtime needs
// to maintain encodings and everything the decoder needs to invert them.
type Spec struct {
	Graph *callgraph.Graph

	// SiteAV is the single addition value per call site (the DeltaPath
	// design: one value even for virtual sites), indexed by the site ids of
	// Graph's numbering (callgraph.Numbering); 0 means no addition. It has
	// one entry per call site of Graph, or none in a PerEdge spec
	// (CheckSiteAV).
	SiteAV []uint64

	// EdgeAV holds per-edge addition values when PerEdge is true (the
	// PCCE design, which needs a dispatch switch at virtual sites).
	EdgeAV  map[callgraph.Edge]uint64
	PerEdge bool

	// Push marks edges that start a new piece at runtime instead of
	// adding: recursive edges always, plus PCCE-pruned edges.
	Push map[callgraph.Edge]PieceKind

	// Anchors marks nodes whose entry saves and resets the encoding:
	// overflow anchors chosen by Algorithm 2 and targets of recursive
	// edges (which must start pieces so that their reserved width of 1
	// keeps downstream ranges disjoint). The program entry is the start
	// of the bottom piece and is not listed here.
	Anchors map[callgraph.NodeID]bool
}

// AV returns the addition value of edge e under this spec.
func (s *Spec) AV(e callgraph.Edge) uint64 {
	if s.PerEdge {
		return s.EdgeAV[e]
	}
	return s.SiteValue(e.Site())
}

// SiteValue returns call site cs's addition value: 0 for a site the graph
// does not have, and for any site of a SiteAV of the wrong length.
func (s *Spec) SiteValue(cs callgraph.Site) uint64 {
	nb := s.Graph.Numbering()
	if k := nb.SiteIndex(cs); k >= 0 && len(s.SiteAV) == nb.NumSites() {
		return s.SiteAV[k]
	}
	return 0
}

// CheckSiteAV reports a SiteAV whose length is not the graph's number of
// call sites (none in a PerEdge spec): a spec assembled by hand, or one
// whose graph grew after it was computed. Readers never index such a
// slice; the verifier reports it and analysisio refuses to save it.
func (s *Spec) CheckSiteAV() error {
	want := s.Graph.NumSites()
	if s.PerEdge {
		want = 0
	}
	if len(s.SiteAV) != want {
		return fmt.Errorf("encoding: SiteAV has %d entries for %d call sites", len(s.SiteAV), want)
	}
	return nil
}

// PieceKind says why a piece was started.
type PieceKind uint8

const (
	// PieceEntry is the bottom piece, starting at the program entry.
	PieceEntry PieceKind = iota
	// PieceAnchor starts at an anchor node invocation (Section 3.2).
	PieceAnchor
	// PieceRecursion starts at the target of a recursive call edge.
	PieceRecursion
	// PiecePruned starts at the target of a PCCE-pruned edge.
	PiecePruned
	// PieceUCP starts at the function that detected a hazardous
	// unexpected call path (Section 4.1).
	PieceUCP
)

func (k PieceKind) String() string {
	switch k {
	case PieceEntry:
		return "entry"
	case PieceAnchor:
		return "anchor"
	case PieceRecursion:
		return "recursion"
	case PiecePruned:
		return "pruned"
	case PieceUCP:
		return "ucp"
	}
	return fmt.Sprintf("PieceKind(%d)", uint8(k))
}

// Element is one suspended piece on the encoding stack.
type Element struct {
	Kind PieceKind

	// DecodeID is the encoding ID with which the suspended piece is
	// decoded; it represents the calling context ending at OuterEnd.
	DecodeID uint64
	// ResumeID is restored into State.ID when the inner piece ends.
	// It differs from DecodeID only for UCP pieces, where the call
	// site's addition value had already been applied when the hazard
	// was detected.
	ResumeID uint64

	// OuterEnd is the node at which the suspended piece ended: the
	// anchor itself for PieceAnchor, the caller of the recursive or
	// pruned call site, or the caller that saved the violated SID
	// expectation for PieceUCP.
	OuterEnd callgraph.NodeID
	// OuterStart is the start node of the suspended piece, restored
	// into State.Start on pop.
	OuterStart callgraph.NodeID

	// Site is the call site recorded for recursion/pruned/UCP pieces.
	Site    callgraph.Site
	HasSite bool

	// Gap is true when unanalysed (dynamically loaded or excluded)
	// frames ran between the suspended piece and the inner piece.
	Gap bool
}

// State is the per-thread runtime encoding state: the current ID, the start
// node of the current piece, and the stack of suspended pieces.
type State struct {
	ID    uint64
	Start callgraph.NodeID
	Stack []Element
}

// NewState returns a State positioned at the program entry.
func NewState(entry callgraph.NodeID) *State {
	return &State{Start: entry}
}

// Reset returns the state to the program entry with an empty stack.
func (s *State) Reset(entry callgraph.NodeID) {
	s.ID = 0
	s.Start = entry
	s.Stack = s.Stack[:0]
}

// Add applies a call site's addition value ("ID += c").
func (s *State) Add(av uint64) { s.ID += av }

// Sub reverses a call site's addition value ("ID -= c").
func (s *State) Sub(av uint64) { s.ID -= av }

// PushAnchor suspends the current piece upon entry to anchor node n and
// starts a fresh piece at n.
func (s *State) PushAnchor(n callgraph.NodeID) {
	s.Stack = append(s.Stack, Element{
		Kind:       PieceAnchor,
		DecodeID:   s.ID,
		ResumeID:   s.ID,
		OuterEnd:   n,
		OuterStart: s.Start,
	})
	s.ID = 0
	s.Start = n
}

// PushCallEdge suspends the current piece because the call at site is about
// to take a recursive or pruned edge to callee. kind must be PieceRecursion
// or PiecePruned.
func (s *State) PushCallEdge(kind PieceKind, site callgraph.Site, callee callgraph.NodeID) {
	s.Stack = append(s.Stack, Element{
		Kind:       kind,
		DecodeID:   s.ID,
		ResumeID:   s.ID,
		OuterEnd:   site.Caller,
		OuterStart: s.Start,
		Site:       site,
		HasSite:    true,
	})
	s.ID = 0
	s.Start = callee
}

// PushUCP suspends the current piece because detector observed a hazardous
// unexpected call path: the SID expectation saved at site does not match
// detector's SID. outerEnd is the innermost live instrumented frame and
// outerID the encoding of the context ending there; together they make the
// suspended piece decodable. The decoded context shows a gap between
// outerEnd and detector where the unanalysed frames ran.
func (s *State) PushUCP(site callgraph.Site, outerID uint64, outerEnd, detector callgraph.NodeID) {
	s.Stack = append(s.Stack, Element{
		Kind:       PieceUCP,
		DecodeID:   outerID,
		ResumeID:   s.ID,
		OuterEnd:   outerEnd,
		OuterStart: s.Start,
		Site:       site,
		HasSite:    true,
		Gap:        true,
	})
	s.ID = 0
	s.Start = detector
}

// Pop ends the current piece and resumes the suspended one, returning the
// popped element. It panics if the stack is empty, which indicates
// unbalanced instrumentation — a bug, not an input condition.
func (s *State) Pop() Element {
	if len(s.Stack) == 0 {
		panic("encoding: pop of empty piece stack")
	}
	top := s.Stack[len(s.Stack)-1]
	s.Stack = s.Stack[:len(s.Stack)-1]
	s.ID = top.ResumeID
	s.Start = top.OuterStart
	return top
}

// TryPop is Pop without the panic: it reports whether a piece was actually
// popped. The runtime encoder uses it so that unbalanced instrumentation —
// which a healthy deployment never produces, but dropped probe events or an
// injected piece-stack truncation do — degrades into a detectable
// corruption (the caller flags the state suspect) instead of a crash.
func (s *State) TryPop() (Element, bool) {
	if len(s.Stack) == 0 {
		return Element{}, false
	}
	return s.Pop(), true
}

// Depth returns the number of stack elements plus one: the total number of
// pieces representing the current context (Table 2's stack depth metric).
func (s *State) Depth() int { return len(s.Stack) + 1 }

// UCPCount returns how many hazardous-UCP pieces are on the stack
// (Table 2's UCP metric).
func (s *State) UCPCount() int {
	n := 0
	for i := range s.Stack {
		if s.Stack[i].Kind == PieceUCP {
			n++
		}
	}
	return n
}

// Snapshot returns a deep copy of the state, e.g. to record an encoding at
// an emit point while execution continues.
func (s *State) Snapshot() *State {
	cp := &State{ID: s.ID, Start: s.Start}
	cp.Stack = append([]Element(nil), s.Stack...)
	return cp
}

// Key folds the state and the end node into a canonical string. Two
// contexts with equal keys have identical encodings; the decoder maps each
// key to exactly one context. Used for uniqueness accounting (Table 2).
//
// Every field the decoder consumes participates: the per-element piece
// boundaries (DecodeID, OuterEnd, OuterStart, the recorded call site) and
// the live piece (ID, its start, the end node). Omitting the starts would
// conflate, e.g., two recursion pieces entered through different dispatch
// targets of one virtual site.
func (s *State) Key(end callgraph.NodeID) string {
	var b strings.Builder
	for i := range s.Stack {
		e := &s.Stack[i]
		fmt.Fprintf(&b, "%d:%d:%d:%d:%d/", e.Kind, e.DecodeID, e.OuterEnd, e.OuterStart, e.Site.Label)
	}
	fmt.Fprintf(&b, "%d@%d^%d", s.ID, end, s.Start)
	return b.String()
}
