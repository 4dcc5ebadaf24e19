package analysisio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/lang"
)

// corpusDPA returns the Save output of every corpus program under
// testdata, analysed as Analyze does.
func corpusDPA(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mv"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus programs: %v", err)
	}
	var out [][]byte
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		res, err := core.Encode(build.Graph, core.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, res.Spec, cpt.Compute(build.Graph)); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// loadAlloc runs Load on data and reports the bytes it allocated.
func loadAlloc(data []byte) (*Bundle, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return b, after.TotalAlloc - before.TotalAlloc, err
}

// loadAllocBound is the most Load may allocate for an input of n bytes: a
// fixed multiple of the input plus a constant, so a declared count or
// length never buys memory the input does not back.
func loadAllocBound(n int) uint64 { return 256*uint64(n) + 256<<10 }

// TestLoadAllocationFollowsInput: a 15-byte file that declares 2^26 nodes
// and a first name of 2^20 bytes must fail with EOF having allocated a few
// KiB, not the declared name length.
func TestLoadAllocationFollowsInput(t *testing.T) {
	data := []byte("DPA2\n" +
		"\x00\x00\x00" + // digest: nodes, edges, hash
		"\x80\x80\x80\x20" + // node count 2^26
		"\x80\x80\x40") // first name length 2^20
	if len(data) != 15 {
		t.Fatalf("input is %d bytes", len(data))
	}
	_, alloc, err := loadAlloc(data)
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("Load = %v, want an EOF error", err)
	}
	if alloc > 64<<10 {
		t.Fatalf("Load allocated %d bytes for a %d-byte input", alloc, len(data))
	}
}

// FuzzLoad pins Load's contract on arbitrary bytes: it never panics, and
// it either fails with an analysisio error and no bundle, or returns a
// bundle whose graph passes Validate and matches the digest it was saved
// with. Either way its allocation stays within loadAllocBound of the input.
func FuzzLoad(f *testing.F) {
	for _, valid := range corpusDPA(f) {
		f.Add(valid)
		f.Add(valid[:5])            // magic only
		f.Add(valid[:len(valid)/2]) // mid-structure
		f.Add(valid[:len(valid)-1]) // truncated tail
		for _, at := range []int{6, len(valid) / 3, 2 * len(valid) / 3, len(valid) - 2} {
			mut := append([]byte(nil), valid...)
			mut[at] ^= 0x10
			f.Add(mut)
		}
	}
	f.Add([]byte("DPA2\n\x00\x00\x00\x80\x80\x80\x20\x80\x80\x40")) // a 15-byte claim of 2^26 nodes
	f.Add([]byte("DPA3\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // implausible counts

	f.Fuzz(func(t *testing.T, data []byte) {
		b, alloc, err := loadAlloc(data)
		if bound := loadAllocBound(len(data)); alloc > bound {
			t.Fatalf("Load allocated %d bytes for a %d-byte input (bound %d)", alloc, len(data), bound)
		}
		if err != nil {
			if b != nil || !strings.HasPrefix(err.Error(), "analysisio: ") {
				t.Fatalf("Load failed with bundle %v and error %q", b != nil, err)
			}
			return
		}
		if err := b.Graph.Validate(); err != nil {
			t.Fatalf("loaded graph fails Validate: %v", err)
		}
		if err := b.CheckGraph(b.Graph); err != nil {
			t.Fatalf("loaded graph fails the digest check: %v", err)
		}
	})
}

// TestCorpusLoadAllocation checks the corpus files themselves against the
// fuzz bound, so a change that raises Load's allocation per input byte fails
// here as well as under fuzzing.
func TestCorpusLoadAllocation(t *testing.T) {
	for _, data := range corpusDPA(t) {
		if _, alloc, err := loadAlloc(data); err != nil || alloc > loadAllocBound(len(data)) {
			t.Fatalf("Load of a %d-byte corpus file: err %v, %d bytes allocated (bound %d)",
				len(data), err, alloc, loadAllocBound(len(data)))
		}
	}
}
