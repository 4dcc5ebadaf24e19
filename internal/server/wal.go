// WAL persistence for one ingestion tenant.
//
// Durability contract: a batch is acknowledged to the agent only after its
// WAL entry — batch ID, every record, and a commit marker — has been
// fsynced. A SIGKILL at any instant therefore loses only unacknowledged
// batches, which the agent client re-sends under the same batch ID; the
// applied-batch set makes the resend idempotent. Recovery replays committed
// entries in order, drops a half-written tail (the profile package's
// ErrTruncatedRecord contract pins exactly which cuts are droppable), and
// refuses to replay against an analysis whose graph digest differs from
// the one the WAL was recorded under — the same stale/tampered-analysis
// refusal .dpa and .dpp files enforce.
//
// On-disk layout per tenant directory (segments and MANIFEST: segment.go):
//
//	wal.log       "DPW1\n" + digest, then batch entries:
//	              'B' uvarint(len(id)) id uvarint(n)
//	              n × DPP1 record framing (uvarint len, bytes, uvarint count)
//	              'C'
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"deltapath/internal/analysisio"
	"deltapath/internal/profile"
)

const (
	walMagic = "DPW1\n"

	walBatchBegin  = 'B'
	walBatchCommit = 'C'
)

// ErrDigestMismatch marks a WAL or segment recorded under a different
// analysis than the one the tenant is being opened with. Replaying it
// would aggregate counts for contexts the analysis cannot decode — the
// server refuses, exactly as .dpa/.dpp loading refuses. Match with
// errors.Is.
var ErrDigestMismatch = errors.New("graph digest mismatch")

// WALBatch is one committed batch recovered from (or appended to) the WAL.
type WALBatch struct {
	ID      string
	Records []profile.Record
}

// ErrWALFailed marks a WAL whose partial entry could not be rolled back
// after a failed append: the file may be structurally corrupt past its
// committed prefix, so further appends (and therefore acknowledgements)
// are refused until a flush's Reset recreates it. Match with errors.Is.
var ErrWALFailed = errors.New("wal failed, awaiting snapshot reset")

// WAL is the append-only durability log of one tenant. Appends are owned
// by the tenant's single worker goroutine; Size is safe to read from any
// goroutine (the health endpoint polls it).
type WAL struct {
	path   string
	digest analysisio.GraphDigest
	f      *os.File
	size   atomic.Int64
	buf    []byte // entry scratch, reused across appends
	// failed is set when a failed append could not be rolled back; owned
	// by the worker goroutine, like Append itself.
	failed bool
}

// createWALFile writes a fresh header-only WAL file. O_APPEND matters:
// every write lands at end-of-file, so rolling a failed append back with
// Truncate leaves the next write at the committed boundary, not beyond it.
func createWALFile(path string, digest analysisio.GraphDigest) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	var hdr bytes.Buffer
	hdr.WriteString(walMagic)
	if err := profile.WriteDigest(&hdr, digest); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Write(hdr.Bytes()); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(hdr.Len()), nil
}

// CreateWAL creates (truncating) a WAL at path and writes its header.
func CreateWAL(path string, digest analysisio.GraphDigest) (*WAL, error) {
	f, n, err := createWALFile(path, digest)
	if err != nil {
		return nil, err
	}
	w := &WAL{path: path, digest: digest, f: f}
	w.size.Store(n)
	return w, nil
}

// openWALForAppend opens an existing WAL whose committed prefix ends at
// offset: any truncated tail beyond it is cut off before appending resumes.
func openWALForAppend(path string, digest analysisio.GraphDigest, offset int64) (*WAL, error) {
	if err := os.Truncate(path, offset); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{path: path, digest: digest, f: f}
	w.size.Store(offset)
	return w, nil
}

// Append durably writes one batch entry: begin marker, ID, records, commit
// marker, then fsync. Only after Append returns nil may the batch be
// acknowledged. A failed write or sync rolls the file back to the last
// committed boundary before returning, so a short write (ENOSPC, I/O
// error) never strands a partial entry for later appends to bury — which
// would corrupt the committed prefix and make every subsequently acked
// batch unrecoverable on replay.
func (w *WAL) Append(id string, recs []profile.Record) error {
	return w.AppendGroup([]WALBatch{{ID: id, Records: recs}})
}

// AppendGroup is the group-commit form of Append: every batch in the group
// is framed into one buffer, written with one Write, and made durable with
// one fsync — the call that amortizes the dominant per-ack cost across all
// batches queued during the previous fsync. All-or-nothing: on any error
// the file is rolled back to the previous committed boundary (the
// per-entry commit markers mean replay would also drop a torn group tail),
// and no batch in the group may be acknowledged.
func (w *WAL) AppendGroup(batches []WALBatch) error {
	if w.failed {
		return fmt.Errorf("wal append: %w", ErrWALFailed)
	}
	buf := w.buf[:0]
	for _, b := range batches {
		buf = append(buf, walBatchBegin)
		buf = binary.AppendUvarint(buf, uint64(len(b.ID)))
		buf = append(buf, b.ID...)
		buf = binary.AppendUvarint(buf, uint64(len(b.Records)))
		for _, r := range b.Records {
			buf = profile.AppendRecord(buf, r.Key, r.Count)
		}
		buf = append(buf, walBatchCommit)
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		w.rollback()
		return fmt.Errorf("wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return fmt.Errorf("wal sync: %w", err)
	}
	w.size.Add(int64(len(buf)))
	return nil
}

// rollback cuts any partially written entry back to the last committed
// boundary (the file is O_APPEND, so the next write lands exactly there).
// If the cut cannot be made durable the WAL is marked failed and refuses
// appends until Reset recreates it.
func (w *WAL) rollback() {
	if err := w.f.Truncate(w.size.Load()); err != nil {
		w.failed = true
		return
	}
	if err := w.f.Sync(); err != nil {
		w.failed = true
	}
}

// Failed reports whether the WAL has rejected an append rollback and is
// refusing further appends until Reset.
func (w *WAL) Failed() bool { return w.failed }

// Size reports the WAL's byte size (header + committed entries).
func (w *WAL) Size() int64 { return w.size.Load() }

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// Reset truncates the WAL back to a bare header — called after a memtable
// flush has atomically installed its segment and manifest, so every entry
// it drops is already persisted in a segment.
func (w *WAL) Reset() error {
	if err := w.f.Close(); err != nil && !w.failed {
		return err
	}
	f, n, err := createWALFile(w.path, w.digest)
	if err != nil {
		return err
	}
	w.f = f
	w.size.Store(n)
	w.failed = false
	return nil
}

// WALReplay is the result of reading a WAL back.
type WALReplay struct {
	Batches []WALBatch
	// CommittedSize is the byte offset of the last committed entry's end —
	// the offset appends must resume from.
	CommittedSize int64
	// TruncatedTail is true when the file ended inside an uncommitted
	// entry (crash mid-append); the tail was dropped.
	TruncatedTail bool
}

// ReplayWAL reads the WAL at path, verifying its digest against want, and
// returns every committed batch in append order. A missing file returns an
// empty replay. The tail is dropped (and flagged) if the file ends inside
// an entry; structural corruption in the committed prefix is an error.
func ReplayWAL(path string, want analysisio.GraphDigest) (*WALReplay, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &WALReplay{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	head := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The file ends inside the header: a crash landed between
			// WAL creation (or a post-flush Reset's truncate) and the
			// header hitting disk. Everything the WAL ever held is
			// already durable in the manifest — Reset runs only after
			// the flush installs it — so an unreadable-short header is
			// an empty WAL, not corruption. CommittedSize 0 tells the
			// caller to recreate the file rather than append to it.
			return &WALReplay{TruncatedTail: true}, nil
		}
		return nil, fmt.Errorf("wal %s: truncated header: %w", path, err)
	}
	if string(head) != walMagic {
		return nil, fmt.Errorf("wal %s: bad magic %q", path, head)
	}
	digest, err := profile.ReadDigest(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return &WALReplay{TruncatedTail: true}, nil // torn mid-header, as above
		}
		return nil, fmt.Errorf("wal %s: %w", path, err)
	}
	if digest != want {
		return nil, fmt.Errorf("wal %s: recorded under %s, analysis graph is %s: %w",
			path, digest, want, ErrDigestMismatch)
	}

	rep := &WALReplay{CommittedSize: offset(cr, br)}
	for {
		marker, err := br.ReadByte()
		if err == io.EOF {
			return rep, nil // clean end at an entry boundary
		}
		if err != nil {
			return nil, fmt.Errorf("wal %s: %w", path, err)
		}
		if marker != walBatchBegin {
			return nil, fmt.Errorf("wal %s: entry %d: bad begin marker 0x%02x",
				path, len(rep.Batches), marker)
		}
		batch, err := readWALEntry(br)
		if err != nil {
			if errors.Is(err, profile.ErrTruncatedRecord) || err == io.EOF || err == io.ErrUnexpectedEOF {
				// Crash mid-append: drop exactly this tail entry.
				rep.TruncatedTail = true
				return rep, nil
			}
			return nil, fmt.Errorf("wal %s: entry %d: %w", path, len(rep.Batches), err)
		}
		rep.Batches = append(rep.Batches, batch)
		rep.CommittedSize = offset(cr, br)
	}
}

// readWALEntry parses one entry body (after the begin marker) through its
// commit marker. Truncation errors pass through untouched so the caller
// can classify the tail.
func readWALEntry(br *bufio.Reader) (WALBatch, error) {
	idLen, err := binary.ReadUvarint(br)
	if err != nil {
		return WALBatch{}, err
	}
	if idLen == 0 || idLen > 1024 {
		return WALBatch{}, fmt.Errorf("implausible batch ID length %d", idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(br, id); err != nil {
		return WALBatch{}, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return WALBatch{}, err
	}
	if n > 1<<24 {
		return WALBatch{}, fmt.Errorf("implausible record count %d", n)
	}
	batch := WALBatch{ID: string(id), Records: make([]profile.Record, 0, n)}
	for i := uint64(0); i < n; i++ {
		rec, count, err := profile.ReadRecord(br)
		if err != nil {
			if err == io.EOF {
				// The entry promised more records than the file holds:
				// a truncated tail, not a boundary.
				return WALBatch{}, io.ErrUnexpectedEOF
			}
			return WALBatch{}, err
		}
		batch.Records = append(batch.Records, profile.Record{Key: rec, Count: count})
	}
	commit, err := br.ReadByte()
	if err != nil {
		return WALBatch{}, err // EOF before commit: truncated tail
	}
	if commit != walBatchCommit {
		return WALBatch{}, fmt.Errorf("bad commit marker 0x%02x", commit)
	}
	return batch, nil
}

// countingReader tracks how many bytes the bufio.Reader has consumed from
// the file, so replay can report the committed offset precisely.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// offset is the file position of the next unread byte.
func offset(cr *countingReader, br *bufio.Reader) int64 {
	return cr.n - int64(br.Buffered())
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
