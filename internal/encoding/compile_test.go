package encoding

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/obs"
)

// anchoredSpec is a fixture whose decode exercises every compiled table:
// per-site AVs, a recursion push edge, and an anchor whose territory must
// exclude edges behind it.
//
//	a ──▶ b ──▶ d        b is an anchor; d→d is a recursive push edge
//	a ──▶ c ──▶ d
func anchoredSpec() (*Spec, map[string]callgraph.NodeID) {
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
	rec := g.AddEdge(ids["d"], 0, ids["d"])
	spec := &Spec{
		Graph: g,
		SiteAV: map[callgraph.Site]uint64{
			{Caller: ids["a"], Label: 1}: 1,
			{Caller: ids["c"], Label: 0}: 0,
		},
		Push:    map[callgraph.Edge]PieceKind{rec: PieceRecursion},
		Anchors: map[callgraph.NodeID]bool{ids["b"]: true, ids["d"]: true},
	}
	return spec, ids
}

// framesEqual reports whether two decoded contexts are identical.
func framesEqual(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameErrorClass reports whether two decode errors carry the same sentinel
// (or are both nil / both untyped).
func sameErrorClass(a, b error) bool {
	for _, sentinel := range []error{ErrCorruptEncoding, ErrNoMatchingEdge, ErrResidualID} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return (a == nil) == (b == nil)
}

// assertDifferential holds the compiled decoder byte-identical to the legacy
// one on a single input: same frames, same error class and message, same
// best-effort salvage.
func assertDifferential(t *testing.T, legacy *Decoder, compiled *CompiledDecoder, st *State, end callgraph.NodeID) {
	t.Helper()
	want, wantErr := legacy.Decode(st.Snapshot(), end)
	got, gotErr := compiled.Decode(st.Snapshot(), end)
	if !sameErrorClass(wantErr, gotErr) {
		t.Fatalf("error class diverged: legacy %v, compiled %v", wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("error message diverged:\nlegacy:   %v\ncompiled: %v", wantErr, gotErr)
	}
	if wantErr == nil && !framesEqual(want, got) {
		t.Fatalf("frames diverged:\nlegacy:   %+v\ncompiled: %+v", want, got)
	}
	wantBE, wantOK := legacy.DecodeBestEffort(st.Snapshot(), end)
	gotBE, gotOK := compiled.DecodeBestEffort(st.Snapshot(), end)
	if wantOK != gotOK || !framesEqual(wantBE, gotBE) {
		t.Fatalf("best-effort diverged:\nlegacy:   %+v (complete=%v)\ncompiled: %+v (complete=%v)",
			wantBE, wantOK, gotBE, gotOK)
	}
}

func TestCompiledMatchesLegacyOnFixtures(t *testing.T) {
	for name, mk := range map[string]func() (*Spec, map[string]callgraph.NodeID){
		"diamond":  diamondSpec,
		"anchored": anchoredSpec,
	} {
		t.Run(name, func(t *testing.T) {
			spec, ids := mk()
			legacy := NewDecoder(spec)
			compiled := Compile(spec)
			// Every id in a generous window, from every node, plus stacked
			// states covering each piece kind.
			for _, endName := range []string{"a", "b", "c", "d"} {
				end := ids[endName]
				for id := uint64(0); id < 8; id++ {
					st := NewState(ids["a"])
					st.ID = id
					assertDifferential(t, legacy, compiled, st, end)
				}
			}
			st := NewState(ids["a"])
			st.Add(1)
			st.PushAnchor(ids["b"])
			assertDifferential(t, legacy, compiled, st, ids["b"])
			st.PushCallEdge(PieceRecursion, callgraph.Site{Caller: ids["d"]}, ids["d"])
			assertDifferential(t, legacy, compiled, st, ids["d"])
			st.PushUCP(callgraph.Site{Caller: ids["d"]}, 0, ids["d"], ids["c"])
			assertDifferential(t, legacy, compiled, st, ids["d"])
			// Corrupt stacks: wrong anchor boundary, bad kind, bad nodes.
			bad := NewState(ids["a"])
			bad.PushAnchor(ids["c"])
			bad.Stack[0].Kind = PieceKind(99)
			assertDifferential(t, legacy, compiled, bad, ids["d"])
			bad2 := NewState(ids["a"])
			bad2.PushAnchor(ids["b"])
			bad2.Stack[0].OuterEnd = callgraph.NodeID(77)
			assertDifferential(t, legacy, compiled, bad2, ids["d"])
		})
	}
}

// TestCompiledTerritoryRestriction pins the anchor-territory semantics: a
// piece starting at the anchor b must not use c's in-edges even when the
// residual id would match, exactly as the legacy bounded DFS restricts it.
func TestCompiledTerritoryRestriction(t *testing.T) {
	spec, ids := anchoredSpec()
	legacy := NewDecoder(spec)
	compiled := Compile(spec)
	st := NewState(ids["b"])
	for id := uint64(0); id < 4; id++ {
		st.ID = id
		assertDifferential(t, legacy, compiled, st, ids["d"])
	}
}

// TestCompiledSparseTerritories pins the territory store: Compile fills rows
// only for the known piece starts (anchors, entry, roots), and a UCP piece
// starting anywhere else builds its row on first decode — one counted miss —
// and serves every later decode of that start from the published row. Both
// stay differential against the legacy decoder.
func TestCompiledSparseTerritories(t *testing.T) {
	spec, ids := anchoredSpec()
	legacy := NewDecoder(spec)
	compiled := Compile(spec)
	reg := obs.NewRegistry()
	compiled.Observe(reg)
	misses := reg.Counter(obs.MetricDecodeMemoMisses)
	for _, want := range []string{"a", "b", "d"} {
		if compiled.rows[ids[want]].Load() == nil {
			t.Errorf("piece start %q missing a precomputed row", want)
		}
	}
	if compiled.rows[ids["c"]].Load() != nil {
		t.Error("non-piece-start c should not be precomputed")
	}
	for _, endName := range []string{"a", "b", "c", "d"} {
		end := ids[endName]
		for id := uint64(0); id < 8; id++ {
			st := NewState(ids["a"])
			st.ID = id
			assertDifferential(t, legacy, compiled, st, end)
		}
	}
	// Anchor piece start (precomputed row) and a UCP resume at c, which has
	// no precomputed row and must build one on first use.
	st := NewState(ids["a"])
	st.Add(1)
	st.PushAnchor(ids["b"])
	assertDifferential(t, legacy, compiled, st, ids["b"])
	if got := misses.Value(); got != 0 {
		t.Fatalf("precomputed starts counted %d misses", got)
	}
	ucp := ucpAtC(ids)
	assertDifferential(t, legacy, compiled, ucp, ids["d"])
	first := misses.Value()
	if first != 1 {
		t.Fatalf("UCP start at c counted %d misses, want one row build", first)
	}
	if compiled.rows[ids["c"]].Load() == nil {
		t.Fatal("UCP start at c did not publish its row")
	}
	assertDifferential(t, legacy, compiled, ucp, ids["d"])
	if got := misses.Value(); got != first {
		t.Errorf("second decode of the UCP start at c added %d misses", got-first)
	}
}

// ucpAtC is an anchoredSpec state whose live piece is a UCP resume at c,
// the one node of the fixture with no precomputed territory row.
func ucpAtC(ids map[string]callgraph.NodeID) *State {
	st := NewState(ids["a"])
	st.PushUCP(callgraph.Site{Caller: ids["a"], Label: 1}, 0, ids["a"], ids["c"])
	return st
}

// chainSpec is a ladder a0 → a1 → … → a(n-1) (label 0, AV 0) with skip
// edges a(i) → a(i+2) (label 1, AV 1) and anchors at a3 and a7: three
// precomputed rows (entry and anchors) against nine other nodes, so
// decoding from every node overflows the cap on rows published at decode
// time.
func chainSpec() (*Spec, []callgraph.NodeID) {
	const n = 12
	g := callgraph.New()
	nodes := make([]callgraph.NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("a%d", i), false)
	}
	g.SetEntry(nodes[0])
	siteAV := map[callgraph.Site]uint64{}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(nodes[i], 0, nodes[i+1])
		if i+2 < n {
			g.AddEdge(nodes[i], 1, nodes[i+2])
			siteAV[callgraph.Site{Caller: nodes[i], Label: 1}] = 1
		}
	}
	spec := &Spec{
		Graph:   g,
		SiteAV:  siteAV,
		Anchors: map[callgraph.NodeID]bool{nodes[3]: true, nodes[7]: true},
	}
	return spec, nodes
}

// assertTerritoryCap checks the bound on the territory store: the rows
// published at decode time never outnumber the rows Compile built.
func assertTerritoryCap(t *testing.T, c *CompiledDecoder) {
	t.Helper()
	if c.rows == nil {
		return
	}
	if p := c.published.Load(); p < 0 || p > c.built {
		t.Fatalf("published %d rows at decode time, cap %d", p, c.built)
	}
	var filled int32
	for i := range c.rows {
		if c.rows[i].Load() != nil {
			filled++
		}
	}
	if filled > 2*c.built {
		t.Fatalf("%d territory rows held, more than twice the %d compiled", filled, c.built)
	}
}

// TestCompiledTerritoryCap decodes records starting at every node of a chain
// with more non-start nodes than precomputed rows: every decode matches the
// legacy decoder, the published rows stop at the cap, and starts past it
// still decode from a row built and dropped per decode.
func TestCompiledTerritoryCap(t *testing.T) {
	spec, nodes := chainSpec()
	legacy := NewDecoder(spec)
	compiled := Compile(spec)
	reg := obs.NewRegistry()
	compiled.Observe(reg)
	if compiled.built != 3 {
		t.Fatalf("compiled %d rows, want 3 (entry and two anchors)", compiled.built)
	}
	for _, start := range nodes {
		for _, end := range nodes {
			for id := uint64(0); id < 4; id++ {
				st := NewState(start)
				st.ID = id
				assertDifferential(t, legacy, compiled, st, end)
				assertTerritoryCap(t, compiled)
			}
		}
	}
	if got := compiled.published.Load(); got != compiled.built {
		t.Errorf("published %d rows, want the cap %d", got, compiled.built)
	}
	// Nine starts lack a compiled row; only three of them got a slot, so the
	// other six rebuild their row on every decode.
	if misses := reg.Counter(obs.MetricDecodeMemoMisses).Value(); misses <= uint64(len(nodes)-3) {
		t.Errorf("%d misses: starts past the cap should rebuild their row per decode", misses)
	}
}

// TestCompiledDecodeIntoReuse proves the documented buffer contract: passing
// the previous result back in reuses its storage and yields identical
// frames.
func TestCompiledDecodeIntoReuse(t *testing.T) {
	spec, ids := diamondSpec()
	compiled := Compile(spec)
	var buf []Frame
	for id := uint64(0); id < 2; id++ {
		st := NewState(ids["a"])
		st.ID = id
		fresh, err := compiled.Decode(st, ids["d"])
		if err != nil {
			t.Fatal(err)
		}
		buf, err = compiled.DecodeInto(buf, st, ids["d"])
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(fresh, buf) {
			t.Fatalf("id %d: DecodeInto %+v != Decode %+v", id, buf, fresh)
		}
	}
}

// TestCompiledDecodeSteadyStateAllocs asserts the headline property of the
// compiled path: a warmed batch-decode loop performs zero allocations per
// context, including a UCP piece start whose row was published by its first
// decode.
func TestCompiledDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	spec, ids := anchoredSpec()
	compiled := Compile(spec)
	// a → b (AV 0), anchor piece at b, then b → d inside the new piece; and
	// a UCP resume at c, whose territory row the first decode publishes.
	st := NewState(ids["a"])
	st.PushAnchor(ids["b"])
	ucp := ucpAtC(ids)
	var buf []Frame
	var err error
	// Warm the scratch pool, the destination buffer and c's row.
	for i := 0; i < 8; i++ {
		for _, in := range []*State{st, ucp} {
			if buf, err = compiled.DecodeInto(buf, in, ids["d"]); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = compiled.DecodeInto(buf, st, ids["d"]); err != nil {
			return
		}
		buf, err = compiled.DecodeInto(buf, ucp, ids["d"])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %v times per op, want 0", allocs)
	}
}

// TestCompiledDecoderConcurrent shares one compiled decoder across many
// goroutines with per-goroutine destination buffers — the lock-free usage
// the tables promise. The UCP resume at c has no compiled row, so the
// goroutines race to publish it on first decode. Run under -race, any
// unsynchronized write would be reported.
func TestCompiledDecoderConcurrent(t *testing.T) {
	spec, ids := anchoredSpec()
	compiled := Compile(spec)
	legacy := NewDecoder(spec)
	type input struct {
		st  *State
		end callgraph.NodeID
	}
	var inputs []input
	for id := uint64(0); id < 4; id++ {
		st := NewState(ids["a"])
		st.ID = id
		inputs = append(inputs, input{st, ids["d"]})
	}
	anch := NewState(ids["a"])
	anch.Add(1)
	anch.PushAnchor(ids["b"])
	inputs = append(inputs, input{anch, ids["b"]}, input{ucpAtC(ids), ids["d"]})
	want := make([][]Frame, len(inputs))
	for i, in := range inputs {
		want[i], _ = legacy.Decode(in.st.Snapshot(), in.end)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Frame
			for round := 0; round < 200; round++ {
				for i, in := range inputs {
					got, err := compiled.DecodeInto(buf, in.st, in.end)
					buf = got
					if want[i] == nil {
						if err == nil {
							errs <- fmt.Errorf("input %d: expected error, got frames", i)
							return
						}
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("input %d: %v", i, err)
						return
					}
					if !framesEqual(got, want[i]) {
						errs <- fmt.Errorf("input %d: %+v != %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	assertTerritoryCap(t, compiled)
}

// FuzzCompiledDecode is the differential fuzzer of the compiled fast path:
// arbitrary bytes parse into a state (or not), and whatever parses must
// decode byte-identically — frames, error class, error message, best-effort
// salvage — under the legacy decoder and the compiled tables, on an
// anchor-free spec and two anchored ones, and no input may grow a territory
// store past its cap.
func FuzzCompiledDecode(f *testing.F) {
	plain, plainIDs := diamondSpec()
	anchored, anchIDs := anchoredSpec()
	chain, _ := chainSpec()
	legacyPlain, compiledPlain := NewDecoder(plain), Compile(plain)
	legacyAnch, compiledAnch := NewDecoder(anchored), Compile(anchored)
	legacyChain, compiledChain := NewDecoder(chain), Compile(chain)

	good := NewState(plainIDs["a"])
	good.ID = 1
	f.Add(MarshalContext(good, plainIDs["d"]))
	stacked := NewState(anchIDs["a"])
	stacked.Add(1)
	stacked.PushAnchor(anchIDs["b"])
	stacked.PushUCP(callgraph.Site{Caller: anchIDs["b"]}, 0, anchIDs["b"], anchIDs["c"])
	f.Add(MarshalContext(stacked, anchIDs["d"]))
	rec := NewState(anchIDs["a"])
	rec.Add(1)
	rec.PushCallEdge(PieceRecursion, callgraph.Site{Caller: anchIDs["d"]}, anchIDs["d"])
	f.Add(MarshalContext(rec, anchIDs["d"]))
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 9})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, end, err := UnmarshalContext(data)
		if err != nil {
			return
		}
		for _, pair := range []struct {
			legacy   *Decoder
			compiled *CompiledDecoder
		}{{legacyPlain, compiledPlain}, {legacyAnch, compiledAnch}, {legacyChain, compiledChain}} {
			want, wantErr := pair.legacy.Decode(st.Snapshot(), end)
			got, gotErr := pair.compiled.Decode(st.Snapshot(), end)
			if !sameErrorClass(wantErr, gotErr) {
				t.Fatalf("error class diverged: legacy %v, compiled %v", wantErr, gotErr)
			}
			if wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("error message diverged:\nlegacy:   %v\ncompiled: %v", wantErr, gotErr)
			}
			if wantErr == nil && !framesEqual(want, got) {
				t.Fatalf("frames diverged:\nlegacy:   %+v\ncompiled: %+v", want, got)
			}
			wantBE, wantOK := pair.legacy.DecodeBestEffort(st.Snapshot(), end)
			gotBE, gotOK := pair.compiled.DecodeBestEffort(st.Snapshot(), end)
			if wantOK != gotOK || !framesEqual(wantBE, gotBE) {
				t.Fatalf("best-effort diverged:\nlegacy %+v (%v)\ncompiled %+v (%v)",
					wantBE, wantOK, gotBE, gotOK)
			}
			assertTerritoryCap(t, pair.compiled)
		}
	})
}
