package encoding

import (
	"strings"
	"testing"

	"deltapath/internal/callgraph"
)

// diamondSpec builds a small spec: a->b->d (AVs 0,0), a->c->d (AVs via
// PCCE-style numbering: ab=0 ac=0 bd=0 cd=1).
func diamondSpec() (*Spec, map[string]callgraph.NodeID) {
	g := callgraph.New()
	ids := map[string]callgraph.NodeID{}
	for _, n := range []string{"a", "b", "c", "d"} {
		ids[n] = g.AddNode(n, false)
	}
	g.SetEntry(ids["a"])
	g.AddEdge(ids["a"], 0, ids["b"])
	g.AddEdge(ids["a"], 1, ids["c"])
	g.AddEdge(ids["b"], 0, ids["d"])
	g.AddEdge(ids["c"], 0, ids["d"])
	spec := &Spec{
		Graph: g,
		SiteAV: siteAVs(g, map[callgraph.Site]uint64{
			{Caller: ids["b"], Label: 0}: 0,
			{Caller: ids["c"], Label: 0}: 1,
		}),
	}
	return spec, ids
}

func TestDecodeBothDiamondArms(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	for id, want := range map[uint64]string{0: "a > b > d", 1: "a > c > d"} {
		st := NewState(ids["a"])
		st.ID = id
		names, err := dec.DecodeNames(st, ids["d"])
		if err != nil {
			t.Fatal(err)
		}
		if FormatContext(names) != want {
			t.Errorf("decode(%d) = %v, want %s", id, names, want)
		}
	}
}

func TestDecodeCorruptIDRejected(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	// ID 99 is outside every range: no in-edge matches after subtracting.
	st := NewState(ids["a"])
	st.ID = 99
	if _, err := dec.Decode(st, ids["d"]); err == nil {
		t.Fatal("corrupt ID decoded without error")
	}
}

func TestDecodeResidualAtStartRejected(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	// End at b with ID 1: the only in-edge of b has AV 0 from a, leaving
	// residual 1 at the piece start.
	st := NewState(ids["a"])
	st.ID = 1
	_, err := dec.Decode(st, ids["b"])
	if err == nil || !strings.Contains(err.Error(), "residual") {
		t.Fatalf("want residual error, got %v", err)
	}
}

func TestDecodeUnreachableEndRejected(t *testing.T) {
	spec, ids := diamondSpec()
	// A node with no in-edges that is not the start.
	orphan := spec.Graph.AddNode("orphan", false)
	dec := Compile(spec)
	st := NewState(ids["a"])
	if _, err := dec.Decode(st, orphan); err == nil {
		t.Fatal("context ending at unreachable node decoded")
	}
}

func TestDecodeCorruptStackRejected(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	// An anchor element whose inner piece does not start at the anchor.
	st.Stack = append(st.Stack, Element{
		Kind:       PieceAnchor,
		OuterEnd:   ids["c"],
		OuterStart: ids["a"],
	})
	st.Start = ids["b"] // inconsistent: should be the anchor c
	if _, err := dec.Decode(st, ids["d"]); err == nil {
		t.Fatal("inconsistent anchor piece decoded")
	}
}

func TestDecodeUnknownPieceKindRejected(t *testing.T) {
	spec, ids := diamondSpec()
	dec := Compile(spec)
	st := NewState(ids["a"])
	st.Stack = append(st.Stack, Element{Kind: PieceKind(42), OuterEnd: ids["a"], OuterStart: ids["a"]})
	st.Start = ids["a"]
	if _, err := dec.Decode(st, ids["a"]); err == nil {
		t.Fatal("unknown piece kind decoded")
	}
}
