package encoding

import (
	"cmp"
	"fmt"
	"slices"

	"deltapath/internal/callgraph"
)

// Decoder is the reference decoder, the tests' oracle for the compiled
// one. It reads the Spec's maps and the graph's own edge lists on every
// step — no caches, no locks, no shared rows — so it shares with Compile
// only the decoding rule: at each node, the in-edge within the piece's
// territory with the largest addition value not exceeding the remaining
// id, ties broken by the largest (caller, label).
type Decoder struct {
	spec *Spec
}

// NewDecoder returns the reference decoder of spec.
func NewDecoder(spec *Spec) *Decoder { return &Decoder{spec: spec} }

// Decode recovers the full calling context whose encoding is st and which
// ends at node end.
func (d *Decoder) Decode(st *State, end callgraph.NodeID) ([]Frame, error) {
	if !d.validNode(end) || !d.validNode(st.Start) {
		return nil, fmt.Errorf("%w: piece boundary node out of range", ErrCorruptEncoding)
	}
	frames, err := d.decodePiece(st.ID, end, st.Start)
	if err != nil {
		return nil, err
	}
	for i := len(st.Stack) - 1; i >= 0; i-- {
		frames, err = d.joinOuter(frames, &st.Stack[i])
		if err != nil {
			return nil, fmt.Errorf("piece %d (%s): %w", i, st.Stack[i].Kind, err)
		}
	}
	return frames, nil
}

// DecodeBestEffort recovers the longest decodable suffix, preceded by a Gap
// frame when the outer pieces are lost, and reports whether the full
// context was recovered.
func (d *Decoder) DecodeBestEffort(st *State, end callgraph.NodeID) ([]Frame, bool) {
	if !d.validNode(end) {
		return []Frame{{Gap: true}}, false
	}
	if !d.validNode(st.Start) {
		return []Frame{{Gap: true}, {Node: end}}, false
	}
	frames, err := d.decodePiece(st.ID, end, st.Start)
	if err != nil {
		return []Frame{{Gap: true}, {Node: end}}, false
	}
	for i := len(st.Stack) - 1; i >= 0; i-- {
		joined, err := d.joinOuter(frames, &st.Stack[i])
		if err != nil {
			return append([]Frame{{Gap: true}}, frames...), false
		}
		frames = joined
	}
	return frames, true
}

// DecodeNames is Decode rendering node names, with gaps shown as "...".
func (d *Decoder) DecodeNames(st *State, end callgraph.NodeID) ([]string, error) {
	frames, err := d.Decode(st, end)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(frames))
	for i, f := range frames {
		if f.Gap {
			out[i] = "..."
		} else {
			out[i] = d.spec.Graph.Name(f.Node)
		}
	}
	return out, nil
}

// joinOuter decodes one suspended piece and prepends it to the frames of
// the pieces inside it, according to its kind.
func (d *Decoder) joinOuter(inner []Frame, el *Element) ([]Frame, error) {
	if !d.validNode(el.OuterEnd) || !d.validNode(el.OuterStart) {
		return nil, fmt.Errorf("%w: piece boundary node out of range", ErrCorruptEncoding)
	}
	outer, err := d.decodePiece(el.DecodeID, el.OuterEnd, el.OuterStart)
	if err != nil {
		return nil, err
	}
	switch el.Kind {
	case PieceAnchor:
		// The outer piece ends at the anchor, which is also the first
		// frame of the inner piece: drop the duplicate.
		if len(inner) == 0 || inner[0].Node != el.OuterEnd {
			return nil, fmt.Errorf("%w: anchor piece does not start at %s",
				ErrCorruptEncoding, d.spec.Graph.Name(el.OuterEnd))
		}
		return append(outer, inner[1:]...), nil
	case PieceRecursion, PiecePruned:
		return append(outer, inner...), nil
	case PieceUCP:
		return append(append(outer, Frame{Gap: true}), inner...), nil
	default:
		return nil, fmt.Errorf("%w: unexpected piece kind %v on stack", ErrCorruptEncoding, el.Kind)
	}
}

func (d *Decoder) validNode(n callgraph.NodeID) bool {
	return n >= 0 && int(n) < d.spec.Graph.NumNodes()
}

// decodePiece recovers the acyclic path from start to end whose addition
// values sum to id, walking bottom-up.
func (d *Decoder) decodePiece(id uint64, end, start callgraph.NodeID) ([]Frame, error) {
	terr := d.territoryOf(start)
	frames := []Frame{{Node: end}}
	n := end
	for steps := 0; ; steps++ {
		if steps > d.spec.Graph.NumNodes()+1 {
			return nil, fmt.Errorf("%w: decode did not terminate after %d steps", ErrCorruptEncoding, steps)
		}
		if n == start {
			if id != 0 {
				return nil, fmt.Errorf("%w: reached piece start %s with residual id %d",
					ErrResidualID, d.spec.Graph.Name(start), id)
			}
			break
		}
		best, ok := d.pickEdge(n, id, terr)
		if !ok {
			return nil, fmt.Errorf("%w: no in-edge of %s matches id %d (piece start %s)",
				ErrNoMatchingEdge, d.spec.Graph.Name(n), id, d.spec.Graph.Name(start))
		}
		id -= d.spec.AV(best)
		n = best.Caller
		frames = append(frames, Frame{Node: n})
	}
	slices.Reverse(frames)
	return frames, nil
}

// pickEdge returns n's non-push in-edge, within the territory (nil: no
// restriction), with the largest (AV, caller, label) whose AV is at most id.
func (d *Decoder) pickEdge(n callgraph.NodeID, id uint64, terr map[callgraph.Edge]bool) (callgraph.Edge, bool) {
	var cands []callgraph.Edge
	for _, e := range d.spec.Graph.In(n) {
		if _, pushed := d.spec.Push[e]; !pushed && d.spec.AV(e) <= id && (terr == nil || terr[e]) {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return callgraph.Edge{}, false
	}
	return slices.MaxFunc(cands, func(a, b callgraph.Edge) int {
		if c := cmp.Compare(d.spec.AV(a), d.spec.AV(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Caller, b.Caller); c != 0 {
			return c
		}
		return cmp.Compare(a.Label, b.Label)
	}), true
}

// territoryOf returns the edges a piece starting at start may traverse:
// every non-push edge reachable from start without leaving through another
// anchor. nil means no restriction: a spec without anchors.
func (d *Decoder) territoryOf(start callgraph.NodeID) map[callgraph.Edge]bool {
	if len(d.spec.Anchors) == 0 {
		return nil
	}
	t := make(map[callgraph.Edge]bool)
	seen := map[callgraph.NodeID]bool{start: true}
	work := []callgraph.NodeID{start}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v != start && d.spec.Anchors[v] {
			continue // retreat at other anchors
		}
		for _, e := range d.spec.Graph.Out(v) {
			if _, pushed := d.spec.Push[e]; pushed {
				continue
			}
			t[e] = true
			if !seen[e.Callee] {
				seen[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	return t
}
