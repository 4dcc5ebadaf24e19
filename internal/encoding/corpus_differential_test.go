package encoding_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deltapath"
	"deltapath/internal/analysisio"
	"deltapath/internal/encoding"
)

// TestCompiledDecoderCorpusDifferential is the corpus-wide equivalence proof
// of the decoder: for every program in testdata/, under both encoding
// settings and several dispatch seeds, every captured context must decode
// to the reference decoder's frames through encoding.Compile, and through
// the analysis's own decoder to the same names — and deterministically
// mutated records must agree too, on error class and message and on the
// best-effort salvage. The spec is the one a saved analysis restores.
func TestCompiledDecoderCorpusDifferential(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.mv")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := deltapath.ParseProgram(string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, appOnly := range []bool{false, true} {
				an, err := deltapath.Analyze(prog, deltapath.Options{ApplicationOnly: appOnly})
				if err != nil {
					t.Fatal(err)
				}
				var saved bytes.Buffer
				if err := an.SaveAnalysis(&saved); err != nil {
					t.Fatal(err)
				}
				bundle, err := analysisio.Load(&saved)
				if err != nil {
					t.Fatal(err)
				}
				oracle := encoding.NewDecoder(bundle.Spec)
				compiled := encoding.Compile(bundle.Spec)
				checked, mutated := 0, 0
				for seed := uint64(0); seed < 3; seed++ {
					contexts, err := an.Run(seed, nil)
					if err != nil {
						t.Fatalf("appOnly=%v seed=%d: %v", appOnly, seed, err)
					}
					for _, c := range contexts {
						rec, err := c.MarshalBinary()
						if err != nil {
							continue // an emit point outside the analysed program
						}
						st, end, err := encoding.UnmarshalContext(rec)
						if err != nil {
							t.Fatal(err)
						}
						want, err := oracle.DecodeNames(st, end)
						if err != nil {
							t.Fatalf("%s: %v", c.At, err)
						}
						if got, err := an.DecodeBytes(rec); err != nil || !slices.Equal(got, want) {
							t.Fatalf("%s: analysis decodes %v (%v), oracle %v", c.At, got, err, want)
						}
						encoding.AssertMatchesOracle(t, oracle, compiled, st, end)
						checked++
						// Deterministic single-byte mutations of the wire
						// record: whatever still parses must stay equivalent.
						for pos := 0; pos < len(rec); pos += 3 {
							mut := slices.Clone(rec)
							mut[pos] ^= 0x15
							if st, end, err := encoding.UnmarshalContext(mut); err == nil {
								encoding.AssertMatchesOracle(t, oracle, compiled, st, end)
								mutated++
							}
						}
					}
				}
				if checked == 0 || mutated == 0 {
					t.Fatalf("appOnly=%v: %d contexts and %d mutated records checked", appOnly, checked, mutated)
				}
			}
		})
	}
}
