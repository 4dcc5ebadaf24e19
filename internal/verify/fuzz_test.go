package verify

import (
	"bytes"
	"path/filepath"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/cha"
)

// FuzzVerify pins the verifier's robustness contract: CheckBytes never
// panics and always terminates, whatever bytes it is handed — corrupt
// magic, truncated sections, bit-flipped addition values, implausible
// counts. It additionally asserts determinism: verifying the same bytes
// twice renders byte-identical reports, the property the golden tests and
// the chaos post-heal hook rely on. And whatever loads verifies exactly as
// the reference verifier does.
func FuzzVerify(f *testing.F) {
	// Seeds: well-formed analyses over two structurally different corpus
	// programs (virtual dispatch + dynamic loading; recursion), then
	// truncations at structural boundaries and targeted mutations. The
	// committed corpus under testdata/fuzz/FuzzVerify mirrors these.
	for _, name := range []string{"dynload.mv", "recursion.mv"} {
		spec, plan := buildFile(f, filepath.Join("..", "..", "testdata", name), cha.EncodingAll)
		var buf bytes.Buffer
		if err := analysisio.Save(&buf, spec, plan); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(append([]byte(nil), valid...))
		f.Add(valid[:0])
		f.Add(valid[:3])            // mid-magic
		f.Add(valid[:5])            // magic only
		f.Add(valid[:len(valid)/2]) // mid-structure
		f.Add(valid[:len(valid)-1]) // truncated tail
		for _, at := range []int{8, len(valid) / 3, 2 * len(valid) / 3} {
			mut := append([]byte(nil), valid...)
			mut[at] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte("DPA2\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // implausible counts
	f.Add([]byte("DPA1\nlegacy"))                                   // wrong version

	f.Fuzz(func(t *testing.T, data []byte) {
		rep := CheckBytes(data, Options{})
		if rep == nil {
			t.Fatal("CheckBytes returned nil report")
		}
		again := CheckBytes(data, Options{})
		if rep.JSON() != again.JSON() {
			t.Fatalf("nondeterministic verification:\n%s\nvs\n%s", rep.JSON(), again.JSON())
		}
		if b, err := analysisio.Load(bytes.NewReader(data)); err == nil {
			assertMatchesOracle(t, "fuzz", rep, checkOracle(b.Spec, b.CPT, Options{}))
		}
	})
}
