package profile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"deltapath/internal/analysisio"
)

func TestStoreInternDedup(t *testing.T) {
	s := NewStore(4)
	a := []byte{1, 2, 3}
	b := []byte{9, 9}
	idA := s.Intern(a)
	if got := s.Intern(a); got != idA {
		t.Fatalf("re-intern changed ID: %d then %d", idA, got)
	}
	idB := s.Intern(b)
	if idA == idB {
		t.Fatalf("distinct records share ID %d", idA)
	}
	s.AddCount(b, 7)
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if s.Unique() != 2 {
		t.Fatalf("Unique = %d, want 2", s.Unique())
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d records", len(snap))
	}
	// Deterministic order: sorted by record bytes.
	if !bytes.Equal(snap[0].Key, a) || !bytes.Equal(snap[1].Key, b) {
		t.Fatalf("snapshot order: %v", snap)
	}
	if snap[0].Count != 2 || snap[1].Count != 8 {
		t.Fatalf("snapshot counts: %d, %d (want 2, 8)", snap[0].Count, snap[1].Count)
	}
}

func TestStoreShardRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-1, DefaultShards}, {0, DefaultShards}, {1, 1}, {3, 4}, {8, 8}, {65, 128},
	} {
		if got := NewStore(c.in).NumShards(); got != c.want {
			t.Errorf("NewStore(%d): %d shards, want %d", c.in, got, c.want)
		}
	}
}

// TestStoreInternDoesNotAliasCaller ensures the store owns its keys: a
// caller reusing its record buffer must not corrupt interned entries.
func TestStoreInternDoesNotAliasCaller(t *testing.T) {
	s := NewStore(1)
	buf := []byte{5, 5, 5}
	s.Intern(buf)
	buf[0] = 6
	s.Intern(buf)
	if s.Unique() != 2 {
		t.Fatalf("Unique = %d, want 2 (store aliased the caller's buffer?)", s.Unique())
	}
}

func testDigest() analysisio.GraphDigest {
	return analysisio.GraphDigest{Nodes: 7, Edges: 12, Hash: 0xfeedface}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testDigest())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(8)
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("rec-%02d", i%10))
		s.Intern(rec)
	}
	if err := w.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 10 {
		t.Fatalf("wrote %d records, want 10", w.Records())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest() != testDigest() {
		t.Fatalf("digest round-trip: %v", r.Digest())
	}
	var total uint64
	n := 0
	for {
		rec, count, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) == 0 || count == 0 {
			t.Fatal("reader yielded empty record or zero count")
		}
		total += count
		n++
	}
	if n != 10 || total != 50 {
		t.Fatalf("read %d records totalling %d, want 10 totalling 50", n, total)
	}
	if r.Records() != 10 {
		t.Fatalf("Records() = %d, want 10", r.Records())
	}
}

func TestWriterRejectsDegenerateRecords(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, testDigest())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(nil, 1); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := w.Add([]byte{1}, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := w.Add(make([]byte, MaxRecordBytes+1), 1); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// TestReaderRejectsCorruptStreams: every corrupt stream must surface a
// non-EOF error, either at NewReader (header damage) or from Next (body
// damage) — never a clean EOF, never a panic.
func TestReaderRejectsCorruptStreams(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testDigest())
		w.Add([]byte{1, 2, 3}, 4)
		w.Flush()
		return buf.Bytes()
	}()
	header := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testDigest())
		w.Flush()
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("DPA2\nxxxxxx"),
		"truncated digest": []byte("DPP1\n\x87"),
		"truncated record": valid[:len(valid)-2],
		"zero length":      append(append([]byte{}, header...), 0x00),
		"implausible length": append(append([]byte{}, header...),
			0xff, 0xff, 0xff, 0xff, 0x7f),
		"zero count": append(append(append([]byte{}, header...),
			0x01, 0xaa), 0x00),
	}
	for name, data := range cases {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			continue // header damage rejected cleanly at construction
		}
		for err == nil {
			_, _, err = r.Next()
		}
		if err == io.EOF {
			t.Errorf("%s: corrupt stream read to clean EOF", name)
		}
	}
}

// TestReaderEmptyProfile: a header with no records is a valid, empty
// profile.
func TestReaderEmptyProfile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testDigest())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty profile: err = %v, want io.EOF", err)
	}
}

// TestReaderErrorSticks: after a corrupt record, every further Next returns
// the same error instead of resynchronizing mid-stream.
func TestReaderErrorSticks(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testDigest())
	w.Flush()
	data := append(buf.Bytes(), 0x00) // zero-length record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err1 := r.Next()
	_, _, err2 := r.Next()
	if err1 == nil || err2 == nil || err1 != err2 {
		t.Fatalf("errors do not stick: %v then %v", err1, err2)
	}
}

// TestStoreRangeMatchesSnapshot: Range visits every record once with its
// count, the same set Snapshot returns sorted.
func TestStoreRangeMatchesSnapshot(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 100; i++ {
		s.AddCount([]byte{byte(i), byte(i * 7)}, uint64(1+i%5))
	}
	got := map[string]uint64{}
	s.Range(func(key string, count uint64) {
		if _, dup := got[key]; dup {
			t.Fatalf("Range visited %x twice", key)
		}
		got[key] = count
	})
	snap := s.Snapshot()
	if len(got) != len(snap) {
		t.Fatalf("Range visited %d records, Snapshot holds %d", len(got), len(snap))
	}
	for _, r := range snap {
		if got[string(r.Key)] != r.Count {
			t.Fatalf("record %x: Range count %d, Snapshot %d", r.Key, got[string(r.Key)], r.Count)
		}
	}
}

// TestReadRecordIntoReusesBuffer: ReadRecordInto reads each record into
// the buffer it is handed while the record fits, and reads the same
// records and counts ReadRecord does.
func TestReadRecordIntoReusesBuffer(t *testing.T) {
	var data []byte
	recs := [][]byte{{1, 2, 3}, {4}, bytes.Repeat([]byte{5}, 40), {6, 7}}
	for i, r := range recs {
		data = AppendRecord(data, r, uint64(i+1))
	}
	br := bufio.NewReader(bytes.NewReader(data))
	buf := make([]byte, 0, 8)
	for i, want := range recs {
		rec, count, err := ReadRecordInto(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, want) || count != uint64(i+1) {
			t.Fatalf("record %d: got %x×%d, want %x×%d", i, rec, count, want, i+1)
		}
		if fits := len(want) <= cap(buf); fits != (&rec[:1][0] == &buf[:1][0]) {
			t.Fatalf("record %d of %d bytes: reused buffer of cap %d = %v", i, len(want), cap(buf), !fits)
		}
		buf = rec
	}
	if _, _, err := ReadRecordInto(br, buf); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}
