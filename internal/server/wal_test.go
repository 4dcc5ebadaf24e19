package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/profile"
)

func walDigest() analysisio.GraphDigest {
	return analysisio.GraphDigest{Nodes: 7, Edges: 11, Hash: 0xdeadbeefcafe}
}

func walBatches() []WALBatch {
	return []WALBatch{
		{ID: "b-1", Records: []profile.Record{
			{Key: []byte{1, 2, 3}, Count: 4},
			{Key: []byte{9}, Count: 1},
		}},
		{ID: "b-2", Records: []profile.Record{
			{Key: bytes.Repeat([]byte{0xab}, 300), Count: 1 << 40},
		}},
		{ID: strings.Repeat("x", 64), Records: []profile.Record{
			{Key: []byte{0}, Count: 1},
		}},
	}
}

func sameBatches(t *testing.T, got, want []WALBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("batch %d: ID %q, want %q", i, got[i].ID, want[i].ID)
		}
		if len(got[i].Records) != len(want[i].Records) {
			t.Fatalf("batch %d: %d records, want %d", i, len(got[i].Records), len(want[i].Records))
		}
		for j, r := range want[i].Records {
			if !bytes.Equal(got[i].Records[j].Key, r.Key) || got[i].Records[j].Count != r.Count {
				t.Fatalf("batch %d record %d: got (%x, %d), want (%x, %d)",
					i, j, got[i].Records[j].Key, got[i].Records[j].Count, r.Key, r.Count)
			}
		}
	}
}

// TestWALRoundTrip: appended batches replay byte-exact, in order, with the
// committed offset landing at end of file.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	batches := walBatches()
	for _, b := range batches {
		if err := w.Append(b.ID, b.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != info.Size() {
		t.Fatalf("WAL.Size() = %d, file is %d bytes", w.Size(), info.Size())
	}

	rep, err := ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rep.Batches, batches)
	if rep.TruncatedTail {
		t.Fatal("clean WAL reported a truncated tail")
	}
	if rep.CommittedSize != info.Size() {
		t.Fatalf("CommittedSize = %d, want %d", rep.CommittedSize, info.Size())
	}
}

// TestWALMissingFile: no WAL yet means an empty replay, not an error.
func TestWALMissingFile(t *testing.T) {
	rep, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.log"), walDigest())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 0 || rep.TruncatedTail || rep.CommittedSize != 0 {
		t.Fatalf("missing WAL replayed as %+v", rep)
	}
}

// TestWALDigestMismatch: a WAL recorded under another analysis is refused
// with ErrDigestMismatch, never silently replayed.
func TestWALDigestMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("b", []profile.Record{{Key: []byte{1}, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	other := walDigest()
	other.Hash ^= 1
	if _, err := ReplayWAL(path, other); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
}

// TestWALEveryPrefixTruncation is the crash-safety core: for EVERY byte
// prefix of a committed WAL, replay must return exactly the batches whose
// commit markers made it to disk, flagging a dropped tail for any
// mid-entry cut. A cut inside the header — a crash between a post-flush
// Reset's truncate and the fresh header reaching disk — is an empty torn
// WAL (CommittedSize 0), since Reset only runs after the flush made its
// contents durable elsewhere. No prefix may panic, error structurally, or
// invent a batch.
func TestWALEveryPrefixTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := w.Size()
	batches := walBatches()
	var ends []int64 // entry-boundary offsets, ascending
	for _, b := range batches {
		if err := w.Append(b.ID, b.Records); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.log")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ReplayWAL(cutPath, walDigest())
		if int64(cut) < headerEnd {
			if err != nil {
				t.Fatalf("cut %d (mid-header): %v", cut, err)
			}
			if len(rep.Batches) != 0 || !rep.TruncatedTail || rep.CommittedSize != 0 {
				t.Fatalf("cut %d (mid-header): batches=%d tail=%v committed=%d, want empty torn replay",
					cut, len(rep.Batches), rep.TruncatedTail, rep.CommittedSize)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		committed := 0
		for _, end := range ends {
			if int64(cut) >= end {
				committed++
			}
		}
		sameBatches(t, rep.Batches, batches[:committed])
		atBoundary := int64(cut) == headerEnd
		for _, end := range ends {
			if int64(cut) == end {
				atBoundary = true
			}
		}
		if rep.TruncatedTail == atBoundary {
			t.Fatalf("cut %d: TruncatedTail = %v, at boundary = %v", cut, rep.TruncatedTail, atBoundary)
		}
		wantCommitted := headerEnd
		if committed > 0 {
			wantCommitted = ends[committed-1]
		}
		if rep.CommittedSize != wantCommitted {
			t.Fatalf("cut %d: CommittedSize = %d, want %d", cut, rep.CommittedSize, wantCommitted)
		}
	}
}

// TestWALStructuralCorruption: corruption inside the committed prefix (a
// flipped marker) is an error, not a silent drop.
func TestWALStructuralCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := w.Size()
	if err := w.Append("b-1", []profile.Record{{Key: []byte{1}, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("b-2", []profile.Record{{Key: []byte{2}, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerEnd] = 'X' // first entry's begin marker
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(path, walDigest()); err == nil {
		t.Fatal("corrupted begin marker replayed without error")
	}
}

// TestWALResetAndResume: Reset truncates to a bare header (post-snapshot),
// and openWALForAppend resumes past a dropped tail without resurrecting it.
func TestWALResetAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := w.Size()
	if err := w.Append("old", []profile.Record{{Key: []byte{1}, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != headerEnd {
		t.Fatalf("post-reset Size = %d, want header size %d", w.Size(), headerEnd)
	}
	if err := w.Append("new", []profile.Record{{Key: []byte{2}, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err := ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rep.Batches, []WALBatch{{ID: "new", Records: []profile.Record{{Key: []byte{2}, Count: 2}}}})

	// Simulate a crash mid-append: chop the last entry in half, then resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := headerEnd + (rep.CommittedSize-headerEnd)/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TruncatedTail || len(rep.Batches) != 0 {
		t.Fatalf("half-entry replay: %d batches, truncated=%v", len(rep.Batches), rep.TruncatedTail)
	}
	w, err = openWALForAppend(path, walDigest(), rep.CommittedSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("resumed", []profile.Record{{Key: []byte{3}, Count: 3}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err = ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rep.Batches, []WALBatch{{ID: "resumed", Records: []profile.Record{{Key: []byte{3}, Count: 3}}}})
	if rep.TruncatedTail {
		t.Fatal("resumed WAL still reports a truncated tail")
	}
}

// TestWALAppendRollback: a partial entry left by a failed append is cut
// back to the committed boundary, so later appends land cleanly and replay
// never sees structural corruption mid-file.
func TestWALAppendRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	good := []WALBatch{
		{ID: "good", Records: []profile.Record{{Key: []byte{1}, Count: 1}}},
		{ID: "after", Records: []profile.Record{{Key: []byte{2}, Count: 2}}},
	}
	if err := w.Append(good[0].ID, good[0].Records); err != nil {
		t.Fatal(err)
	}
	// Simulate a short write: half an entry lands on disk, then the append
	// machinery rolls it back — exactly what Append does internally when
	// Write or Sync errors out.
	if _, err := w.f.Write([]byte{walBatchBegin, 0x04, 'h', 'a'}); err != nil {
		t.Fatal(err)
	}
	w.rollback()
	if w.Failed() {
		t.Fatal("successful rollback left the WAL failed")
	}
	if err := w.Append(good[1].ID, good[1].Records); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err := ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rep.Batches, good)
	if rep.TruncatedTail {
		t.Fatal("rolled-back WAL still reports a truncated tail")
	}
}

// TestWALFailedRefusesAppends: when the rollback itself cannot succeed the
// WAL flips to failed and refuses appends (so no batch is acked against a
// possibly-corrupt log) until Reset recreates the file.
func TestWALFailedRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("good", []profile.Record{{Key: []byte{1}, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the WAL: the write fails and so does
	// the rollback's truncate.
	w.f.Close()
	if err := w.Append("bad", []profile.Record{{Key: []byte{2}, Count: 2}}); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if !w.Failed() {
		t.Fatal("irrecoverable append did not mark the WAL failed")
	}
	if err := w.Append("refused", nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append on failed WAL: %v, want ErrWALFailed", err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Failed() {
		t.Fatal("Reset did not clear the failed state")
	}
	if err := w.Append("new", []profile.Record{{Key: []byte{3}, Count: 3}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err := ReplayWAL(path, walDigest())
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rep.Batches, []WALBatch{{ID: "new", Records: []profile.Record{{Key: []byte{3}, Count: 3}}}})
}
