package deltapath

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"deltapath/internal/encoding"
)

// TestCompiledDecoderCorpusDifferential is the corpus-wide equivalence proof
// of the compiled decode path: for every program in testdata/, under both
// encoding settings and several dispatch seeds, every captured context must
// decode to byte-identical frames through the legacy map-based decoder and
// the compiled flat tables — and deterministically mutated records must
// agree too, on error class and on the best-effort salvage.
func TestCompiledDecoderCorpusDifferential(t *testing.T) {
	files, err := filepath.Glob("testdata/*.mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	sentinels := []error{ErrCorruptEncoding, ErrNoMatchingEdge, ErrResidualID}
	sameClass := func(a, b error) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		for _, s := range sentinels {
			if errors.Is(a, s) != errors.Is(b, s) {
				return false
			}
		}
		return true
	}
	framesEqual := func(a, b []encoding.Frame) bool {
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
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ParseProgram(string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, appOnly := range []bool{false, true} {
				an, err := Analyze(prog, Options{ApplicationOnly: appOnly})
				if err != nil {
					t.Fatal(err)
				}
				legacy := encoding.NewDecoder(an.epoch().result.Spec)
				compiled := an.epoch().decoder
				var buf []encoding.Frame // exercises the DecodeInto reuse path
				checked, mutated := 0, 0
				for seed := uint64(0); seed < 3; seed++ {
					contexts, err := an.Run(seed, nil)
					if err != nil {
						t.Fatalf("appOnly=%v seed=%d: %v", appOnly, seed, err)
					}
					for _, c := range contexts {
						if !c.known {
							continue
						}
						want, wantErr := legacy.Decode(&c.state, c.node)
						buf, err = compiled.DecodeInto(buf, &c.state, c.node)
						if !sameClass(wantErr, err) {
							t.Fatalf("error diverged: legacy %v, compiled %v", wantErr, err)
						}
						if wantErr == nil && !framesEqual(want, buf) {
							t.Fatalf("frames diverged at %s:\nlegacy:   %+v\ncompiled: %+v", c.At, want, buf)
						}
						checked++
						// Deterministic single-byte mutations of the wire
						// record: whatever still parses must stay equivalent,
						// error classes and best-effort salvage included.
						rec, err := c.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						for pos := 0; pos < len(rec); pos += 3 {
							mut := append([]byte(nil), rec...)
							mut[pos] ^= 0x15
							st, end, err := encoding.UnmarshalContext(mut)
							if err != nil {
								continue
							}
							mWant, mWantErr := legacy.Decode(st.Snapshot(), end)
							mGot, mGotErr := compiled.Decode(st.Snapshot(), end)
							if !sameClass(mWantErr, mGotErr) {
								t.Fatalf("mutated record: error diverged: legacy %v, compiled %v", mWantErr, mGotErr)
							}
							if mWantErr == nil && !framesEqual(mWant, mGot) {
								t.Fatalf("mutated record: frames diverged:\nlegacy:   %+v\ncompiled: %+v", mWant, mGot)
							}
							beWant, beWantOK := legacy.DecodeBestEffort(st.Snapshot(), end)
							beGot, beGotOK := compiled.DecodeBestEffort(st.Snapshot(), end)
							if beWantOK != beGotOK || !framesEqual(beWant, beGot) {
								t.Fatalf("mutated record: best-effort diverged:\nlegacy %+v (%v)\ncompiled %+v (%v)",
									beWant, beWantOK, beGot, beGotOK)
							}
							mutated++
						}
					}
				}
				if checked == 0 {
					t.Fatalf("appOnly=%v: no contexts checked", appOnly)
				}
				if mutated == 0 {
					t.Fatalf("appOnly=%v: no mutated records exercised", appOnly)
				}
			}
		})
	}
}
