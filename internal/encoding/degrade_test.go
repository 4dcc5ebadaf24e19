package encoding

import (
	"errors"
	"testing"

	"deltapath/internal/callgraph"
)

// These tests pin the graceful-degradation contract of the decoder: every
// corruption class fails with its sentinel (matchable via errors.Is), and
// DecodeBestEffort turns each failure into the longest decodable suffix
// behind an explicit gap instead of an error.

func TestDecodeSentinelNoMatchingEdge(t *testing.T) {
	spec, ids := diamondSpec()
	// A context can never end at a node with no in-edges (other than the
	// piece start): there is no edge to account for reaching it.
	orphan := spec.Graph.AddNode("orphan", false)
	dec := Compile(spec)
	st := NewState(ids["a"])
	_, err := dec.Decode(st, orphan)
	if !errors.Is(err, ErrNoMatchingEdge) {
		t.Fatalf("want ErrNoMatchingEdge, got %v", err)
	}
}

func TestDecodeSentinelResidualID(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	st.ID = 1
	_, err := dec.Decode(st, ids["b"])
	if !errors.Is(err, ErrResidualID) {
		t.Fatalf("want ErrResidualID, got %v", err)
	}
}

func TestDecodeSentinelCorruptBoundaries(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)

	// End node outside the graph.
	st := NewState(ids["a"])
	if _, err := dec.Decode(st, 999); !errors.Is(err, ErrCorruptEncoding) {
		t.Fatalf("out-of-range end: want ErrCorruptEncoding, got %v", err)
	}
	if _, err := dec.Decode(st, -1); !errors.Is(err, ErrCorruptEncoding) {
		t.Fatalf("negative end: want ErrCorruptEncoding, got %v", err)
	}

	// Stack element with an out-of-range piece boundary.
	st = NewState(ids["a"])
	st.Stack = append(st.Stack, Element{Kind: PieceAnchor, OuterEnd: 999, OuterStart: ids["a"]})
	st.Start = ids["b"]
	if _, err := dec.Decode(st, ids["b"]); !errors.Is(err, ErrCorruptEncoding) {
		t.Fatalf("corrupt stack boundary: want ErrCorruptEncoding, got %v", err)
	}

	// Anchor piece whose inner piece does not start at the anchor.
	st = NewState(ids["a"])
	st.Stack = append(st.Stack, Element{Kind: PieceAnchor, OuterEnd: ids["c"], OuterStart: ids["a"]})
	st.Start = ids["b"]
	if _, err := dec.Decode(st, ids["b"]); !errors.Is(err, ErrCorruptEncoding) {
		t.Fatalf("anchor mismatch: want ErrCorruptEncoding, got %v", err)
	}
}

func TestDecodeBestEffortCompleteMatchesDecode(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	st.ID = 1
	want, err := dec.Decode(st, ids["d"])
	if err != nil {
		t.Fatal(err)
	}
	got, complete := dec.DecodeBestEffort(st, ids["d"])
	if !complete {
		t.Fatal("intact context reported incomplete")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeBestEffortCorruptLivePiece(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	st.ID = 99 // no path sums to 99
	frames, complete := dec.DecodeBestEffort(st, ids["d"])
	if complete {
		t.Fatal("corrupt live piece reported complete")
	}
	if len(frames) != 2 || !frames[0].Gap || frames[1].Node != ids["d"] {
		t.Fatalf("want [gap, d], got %+v", frames)
	}
}

func TestDecodeBestEffortCorruptOuterPieceKeepsSuffix(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	// The live piece (b -> d along the AV-0 edge) is fine; the suspended
	// outer piece carries a corrupt DecodeID no path can account for.
	st := NewState(ids["a"])
	st.ID = 99
	st.PushAnchor(ids["b"])
	frames, complete := dec.DecodeBestEffort(st, ids["d"])
	if complete {
		t.Fatal("corrupt outer piece reported complete")
	}
	if len(frames) != 3 || !frames[0].Gap || frames[1].Node != ids["b"] || frames[2].Node != ids["d"] {
		t.Fatalf("want [gap, b, d], got %+v", frames)
	}
}

func TestDecodeBestEffortOutOfRangeEnd(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	frames, complete := dec.DecodeBestEffort(st, callgraph.NodeID(999))
	if complete || len(frames) != 1 || !frames[0].Gap {
		t.Fatalf("want single gap frame, got %+v (complete=%v)", frames, complete)
	}
}
