package profile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"deltapath/internal/analysisio"
)

// The streaming binary profile format (".dpp"):
//
//	magic   "DPP2\n" (or "DPP1\n", the pre-epoch format)
//	digest  uvarint nodes, uvarint edges, uvarint hash
//	        — the analysisio.GraphDigest of the call graph the records
//	          were captured under; a reader refuses to decode against a
//	          mismatching analysis, exactly like analysisio.Load refuses
//	          stale/tampered analyses.
//	epoch   uvarint (DPP2 only) — the analysis epoch the records were
//	        captured under: how many incremental extensions
//	        (Analysis.Extend) behind the whole-program analysis. DPP1
//	        files are epoch 0.
//	records repeated until EOF:
//	        uvarint len (1..MaxRecordBytes), len record bytes, uvarint
//	        count (>= 1)
//
// An epoch-0 profile is written as DPP1, byte-identical with pre-epoch
// builds — existing files, WAL fixtures and golden bytes stay valid — and
// the epoch field appears only when there is an epoch to record.
//
// The format is append-friendly: the same record may appear more than once
// (e.g. one Writer fed from several runs without a merging store); readers
// sum the counts. A typical record is 5–30 bytes, so a million-context
// profile streams in a few megabytes with no in-memory table on either
// side.

const (
	dppMagic   = "DPP1\n"
	dppMagicV2 = "DPP2\n"
)

// ErrTruncatedRecord marks a record cut short by end of input — a stream
// that stopped mid-varint or mid-record-body, the signature of a crash
// during an append (a half-written WAL tail, a copy that died mid-file).
// It is distinct from structural corruption (implausible lengths, zero
// counts): a replayer may safely drop the final truncated record of an
// append-only log and keep everything before it, whereas structural
// corruption poisons the stream. Match with errors.Is.
var ErrTruncatedRecord = errors.New("truncated record at end of input")

// MaxRecordBytes bounds a single record's length. Context records are tiny
// (a handful of bytes per stack piece); anything near this limit is corrupt
// input, and the bound keeps a hostile length prefix from forcing a huge
// allocation.
const MaxRecordBytes = 1 << 20

// Writer streams a .dpp profile. Create with NewWriter, call Add per
// record, then Flush. Writer is not safe for concurrent use; aggregate
// concurrently into a Store and stream its Snapshot instead.
type Writer struct {
	bw  *bufio.Writer
	err error
	n   uint64
}

// NewWriter writes the header and returns a streaming writer. digest must
// describe the call graph of the analysis the records were captured under.
// The profile is stamped epoch 0; use NewWriterEpoch for records captured
// under an extended analysis.
func NewWriter(w io.Writer, digest analysisio.GraphDigest) (*Writer, error) {
	return NewWriterEpoch(w, digest, 0)
}

// NewWriterEpoch is NewWriter with an explicit analysis epoch. Epoch 0
// writes the DPP1 header (no epoch field, byte-identical with pre-epoch
// builds); a nonzero epoch writes DPP2 with the epoch after the digest.
func NewWriterEpoch(w io.Writer, digest analysisio.GraphDigest, epoch uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	head := dppMagic
	if epoch > 0 {
		head = dppMagicV2
	}
	if _, err := bw.WriteString(head); err != nil {
		return nil, err
	}
	if err := WriteDigest(bw, digest); err != nil {
		return nil, err
	}
	if epoch > 0 {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], epoch)
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
	}
	return &Writer{bw: bw}, nil
}

// WriteDigest writes a graph digest in the .dpp wire form (three uvarints:
// nodes, edges, hash). Exported so other append-only formats carrying the
// same compatibility key — e.g. the ingestion server's WAL — share one
// encoding.
func WriteDigest(w io.Writer, digest analysisio.GraphDigest) error {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []uint64{digest.Nodes, digest.Edges, digest.Hash} {
		n := binary.PutUvarint(buf[:], v)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// ReadDigest reads a graph digest written by WriteDigest.
func ReadDigest(br io.ByteReader) (analysisio.GraphDigest, error) {
	var dig [3]uint64
	for i := range dig {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return analysisio.GraphDigest{}, fmt.Errorf("truncated digest: %w", err)
		}
		dig[i] = v
	}
	return analysisio.GraphDigest{Nodes: dig[0], Edges: dig[1], Hash: dig[2]}, nil
}

// Add appends one record with its count. Zero-length records and zero
// counts are rejected — neither has a meaning in a profile, and rejecting
// them keeps the reader's corruption contract crisp.
func (w *Writer) Add(record []byte, count uint64) error {
	if w.err != nil {
		return w.err
	}
	if len(record) == 0 {
		return fmt.Errorf("profile: empty record")
	}
	if len(record) > MaxRecordBytes {
		return fmt.Errorf("profile: record of %d bytes exceeds limit %d", len(record), MaxRecordBytes)
	}
	if count == 0 {
		return fmt.Errorf("profile: zero count")
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(record)))
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(record); err != nil {
		w.err = err
		return err
	}
	n = binary.PutUvarint(buf[:], count)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Records reports how many records have been written.
func (w *Writer) Records() uint64 { return w.n }

// Flush writes out any buffered data. Call once after the last Add.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// WriteSnapshot streams the store's current snapshot through w: one record
// per distinct context, in deterministic (record-byte) order.
func (w *Writer) WriteSnapshot(s *Store) error {
	for _, r := range s.Snapshot() {
		if err := w.Add(r.Key, r.Count); err != nil {
			return err
		}
	}
	return nil
}

// AppendRecord appends one DPP1-framed record — uvarint length, record
// bytes, uvarint count — to buf and returns the extended slice: the
// write-side counterpart of ReadRecord for callers (the ingestion WAL)
// that frame records into their own containers.
func AppendRecord(buf []byte, record []byte, count uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(record)))
	buf = append(buf, record...)
	return binary.AppendUvarint(buf, count)
}

// Reader streams a .dpp profile. Create with NewReader (which validates the
// header), check Digest against the analysis in hand, then call Next until
// io.EOF.
type Reader struct {
	br     *bufio.Reader
	digest analysisio.GraphDigest
	epoch  uint64
	n      uint64
	err    error
}

// NewReader parses the header. It fails on a bad magic, an unsupported
// version (a typed analysisio.VersionSkewError naming both sides), or a
// truncated digest. Both DPP2 and the pre-epoch DPP1 are accepted; DPP1
// profiles report epoch 0.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(dppMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var epochal bool
	switch string(head) {
	case dppMagic:
	case dppMagicV2:
		epochal = true
	default:
		if strings.HasPrefix(string(head), "DPP") {
			return nil, fmt.Errorf("profile: %w", &analysisio.VersionSkewError{
				Found:     strings.TrimSuffix(string(head), "\n"),
				Supported: []string{"DPP2", "DPP1"},
			})
		}
		return nil, fmt.Errorf("profile: bad magic %q (not a .dpp profile)", head)
	}
	digest, err := ReadDigest(br)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var epoch uint64
	if epochal {
		if epoch, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("profile: truncated epoch: %w", err)
		}
	}
	return &Reader{br: br, digest: digest, epoch: epoch}, nil
}

// Digest returns the graph digest the profile was recorded under.
func (r *Reader) Digest() analysisio.GraphDigest { return r.digest }

// Epoch returns the analysis epoch the profile was recorded under (0 for
// DPP1 files and whole-program analyses).
func (r *Reader) Epoch() uint64 { return r.epoch }

// Records reports how many records Next has returned so far.
func (r *Reader) Records() uint64 { return r.n }

// Next returns the next record and its count. It returns io.EOF at a clean
// end of stream; any other error marks corrupt input. Truncation by end of
// input — a stream that stops mid-varint or mid-record-body — matches
// errors.Is(err, ErrTruncatedRecord), distinct from structural corruption
// (a zero or implausible length, a zero count). The returned slice is owned
// by the caller.
func (r *Reader) Next() (record []byte, count uint64, err error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	record, count, err = ReadRecord(r.br)
	if err != nil {
		if err == io.EOF {
			r.err = io.EOF
			return nil, 0, io.EOF
		}
		r.err = fmt.Errorf("profile: record %d: %w", r.n, err)
		return nil, 0, r.err
	}
	r.n++
	return record, count, nil
}

// ReadRecord reads one DPP1-framed record — uvarint length, record bytes,
// uvarint count — from br. It returns io.EOF when the input ends cleanly at
// a record boundary and an error wrapping ErrTruncatedRecord when the input
// ends anywhere inside a record. Exported so WAL replayers share the exact
// framing (and its corruption contract) with the .dpp reader. The returned
// slice is freshly allocated and owned by the caller.
func ReadRecord(br *bufio.Reader) (record []byte, count uint64, err error) {
	return ReadRecordInto(br, nil)
}

// ReadRecordInto is ReadRecord reading the record into buf's storage when
// it is large enough, so a scan that drops each record before reading the
// next allocates only when a record outgrows the buffer. The returned
// slice aliases buf (or its replacement); pass it back as the next buf.
func ReadRecordInto(br *bufio.Reader, buf []byte) (record []byte, count uint64, err error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			// One or more length bytes arrived, then the stream ended:
			// the classic half-written append.
			return nil, 0, fmt.Errorf("%w (mid-varint length)", ErrTruncatedRecord)
		}
		return nil, 0, fmt.Errorf("reading length: %w", err)
	}
	if size == 0 || size > MaxRecordBytes {
		return nil, 0, fmt.Errorf("implausible length %d", size)
	}
	if uint64(cap(buf)) >= size {
		record = buf[:size]
	} else {
		record = make([]byte, size)
	}
	if _, err := io.ReadFull(br, record); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, fmt.Errorf("%w (mid-record body, want %d bytes)", ErrTruncatedRecord, size)
		}
		return nil, 0, fmt.Errorf("reading body: %w", err)
	}
	count, err = binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, fmt.Errorf("%w (mid-varint count)", ErrTruncatedRecord)
		}
		return nil, 0, fmt.Errorf("reading count: %w", err)
	}
	if count == 0 {
		return nil, 0, fmt.Errorf("zero count")
	}
	return record, count, nil
}
