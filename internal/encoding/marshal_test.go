package encoding

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"deltapath/internal/callgraph"
)

func randomState(rng *rand.Rand) (*State, callgraph.NodeID) {
	st := NewState(callgraph.NodeID(rng.Intn(1000)))
	st.ID = rng.Uint64() >> uint(rng.Intn(64))
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		el := Element{
			Kind:       PieceKind(rng.Intn(5)),
			DecodeID:   rng.Uint64() >> uint(rng.Intn(64)),
			ResumeID:   rng.Uint64() >> uint(rng.Intn(64)),
			OuterEnd:   callgraph.NodeID(rng.Intn(1000)),
			OuterStart: callgraph.NodeID(rng.Intn(1000)),
			HasSite:    rng.Intn(2) == 0,
			Gap:        rng.Intn(2) == 0,
		}
		if el.HasSite {
			el.Site = callgraph.Site{
				Caller: callgraph.NodeID(rng.Intn(1000)),
				Label:  int32(rng.Intn(500)),
			}
		}
		st.Stack = append(st.Stack, el)
	}
	return st, callgraph.NodeID(rng.Intn(1000))
}

func statesEqual(a, b *State) bool {
	if a.ID != b.ID || a.Start != b.Start || len(a.Stack) != len(b.Stack) {
		return false
	}
	for i := range a.Stack {
		x, y := a.Stack[i], b.Stack[i]
		if x.Kind != y.Kind || x.DecodeID != y.DecodeID || x.ResumeID != y.ResumeID ||
			x.OuterEnd != y.OuterEnd || x.OuterStart != y.OuterStart ||
			x.Gap != y.Gap || x.HasSite != y.HasSite {
			return false
		}
		if x.HasSite && x.Site != y.Site {
			return false
		}
	}
	return true
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, end := randomState(rng)
		data := MarshalContext(st, end)
		got, gotEnd, err := UnmarshalContext(data)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if gotEnd != end {
			return false
		}
		// Site of site-less elements is not preserved bit-for-bit (it is
		// zero on the wire), matching HasSite semantics.
		return statesEqual(st, got) || statesEqualModuloSitelessSites(st, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func statesEqualModuloSitelessSites(a, b *State) bool {
	ac := a.Snapshot()
	for i := range ac.Stack {
		if !ac.Stack[i].HasSite {
			ac.Stack[i].Site = callgraph.Site{}
		}
	}
	return statesEqual(ac, b)
}

func TestMarshalCompact(t *testing.T) {
	st := NewState(0)
	st.ID = 42
	data := MarshalContext(st, 7)
	if len(data) > 8 {
		t.Fatalf("stackless context costs %d bytes, want <= 8", len(data))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,                   // empty
		{99},                  // bad version
		{1},                   // truncated after version
		{1, 0x80},             // truncated varint
		{1, 1, 1, 1, 200},     // huge stack count, truncated
		{1, 1, 1, 1, 0, 9, 9}, // trailing bytes
	}
	for i, data := range cases {
		if _, _, err := UnmarshalContext(data); err == nil {
			t.Errorf("case %d: corrupt record accepted", i)
		}
	}
}

func TestMarshalDecodeIntegration(t *testing.T) {
	// Serialize a real state produced by a path walk and decode it after
	// the round trip.
	g := callgraph.New()
	a := g.AddNode("a", false)
	b := g.AddNode("b", false)
	c := g.AddNode("c", false)
	g.SetEntry(a)
	e1 := g.AddEdge(a, 0, b)
	e2 := g.AddEdge(b, 0, c)
	spec := &Spec{
		Graph: g,
		SiteAV: siteAVs(g, map[callgraph.Site]uint64{
			{Caller: a, Label: 0}: 0,
			{Caller: b, Label: 0}: 0,
		}),
	}
	st, err := EncodePath(spec, []callgraph.Edge{e1, e2})
	if err != nil {
		t.Fatal(err)
	}
	data := MarshalContext(st, c)
	back, end, err := UnmarshalContext(data)
	if err != nil {
		t.Fatal(err)
	}
	names, err := Compile(spec).DecodeNames(back, end)
	if err != nil {
		t.Fatal(err)
	}
	if FormatContext(names) != "a > b > c" {
		t.Fatalf("decoded %v", names)
	}
}

// TestUnmarshalAllocs: a record is parsed with its stack sized once — the
// State and, when the record has elements, one stack allocation — instead
// of growing the stack element by element.
func TestUnmarshalAllocs(t *testing.T) {
	st := NewState(3)
	st.ID = 42
	for i := 0; i < 5; i++ {
		st.Stack = append(st.Stack, Element{Kind: PieceAnchor, DecodeID: uint64(i), ResumeID: uint64(i), OuterEnd: 7, OuterStart: 2})
	}
	withStack := MarshalContext(st, 9)
	stackless := MarshalContext(NewState(3), 9)
	for _, tc := range []struct {
		name string
		data []byte
		want float64
	}{{"stackless", stackless, 1}, {"five elements", withStack, 2}} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := UnmarshalContext(tc.data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", tc.name, allocs, tc.want)
		}
	}
}

// TestUnmarshalHostileCount: a record whose element count claims as many
// elements as the record has bytes passes the count check but cannot hold
// them. It must fail as truncated, having sized its stack by the bytes
// actually left rather than by the claim.
func TestUnmarshalHostileCount(t *testing.T) {
	const size = 4096
	data := make([]byte, size) // zero bytes are valid one-byte varints
	data[0] = marshalVersion
	head := binary.AppendUvarint([]byte{1, 1, 1}, size) // ID, start, end, count
	copy(data[1:], head)
	left := size - 1 - len(head)
	_, _, err := UnmarshalContext(data)
	if err == nil || !strings.Contains(err.Error(), "corrupt record: truncated varint") {
		t.Fatalf("err = %v, want a truncated-varint corruption", err)
	}
	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		UnmarshalContext(data)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	// A quarter over the stack's own size covers the allocator's size
	// classes; the State and the error take the rest.
	bound := uint64(left/minElementBytes)*uint64(unsafe.Sizeof(Element{}))*5/4 + 1024
	if perCall > bound {
		t.Fatalf("hostile count allocates %d B per call, bound %d B (%d bytes left hold at most %d elements)",
			perCall, bound, left, left/minElementBytes)
	}
}
