package encoding

import (
	"testing"

	"deltapath/internal/callgraph"
)

// FuzzUnmarshalContext asserts record parsing never panics on arbitrary
// bytes and that valid records round-trip.
func FuzzUnmarshalContext(f *testing.F) {
	st := NewState(3)
	st.ID = 41
	st.PushAnchor(7)
	st.Add(5)
	f.Add(MarshalContext(st, 9))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0x80, 0x80, 0x80})
	f.Add([]byte{1, 1, 1, 1, 250, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, end, err := UnmarshalContext(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-serialize to an equivalent record.
		again, end2, err := UnmarshalContext(MarshalContext(got, end))
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if end2 != end || !statesEqual(got, again) {
			t.Fatalf("marshal/unmarshal not idempotent")
		}
	})
}

// FuzzDecode pipes arbitrary bytes through UnmarshalContext into the
// reference decoder and asserts the corruption contract: whatever parses
// must either decode or fail with a typed error — never panic, never loop
// — and DecodeBestEffort must always return frames, agreeing with Decode
// exactly when it reports the context complete. FuzzCompiledDecode holds
// the compiled decoder to this oracle, so the oracle must keep the
// contract on its own.
func FuzzDecode(f *testing.F) {
	spec, ids := diamondSpec()
	dec := NewDecoder(spec)

	good := NewState(ids["a"])
	good.ID = 1
	f.Add(MarshalContext(good, ids["d"]))
	stacked := NewState(ids["a"])
	stacked.PushAnchor(ids["b"])
	stacked.PushUCP(callgraph.Site{Caller: ids["b"]}, 0, ids["b"], ids["c"])
	f.Add(MarshalContext(stacked, ids["d"]))
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 9})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, end, err := UnmarshalContext(data)
		if err != nil {
			return
		}
		frames, err := dec.Decode(st, end)
		if err != nil && !typedError(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		beFrames, complete := dec.DecodeBestEffort(st.Snapshot(), end)
		if len(beFrames) == 0 {
			t.Fatal("DecodeBestEffort returned no frames")
		}
		if complete != (err == nil) {
			t.Fatalf("complete=%v but Decode err=%v", complete, err)
		}
		if complete && !framesEqual(frames, beFrames) {
			t.Fatalf("complete best-effort decode %+v != Decode %+v", beFrames, frames)
		}
	})
}
