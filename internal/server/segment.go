// LSM-style segment storage for one ingestion tenant.
//
// The snapshot monolith (DPS1: the whole store rewritten on every flush)
// becomes a manifest of immutable sorted segments:
//
//	seg-NNNNNNNN.dps  "DPS2\n" + digest + fixed header
//	                  (8-byte LE seq, pairs, total), then `pairs` sorted
//	                  (uvarint len, key bytes, uvarint count) entries in
//	                  ascending key order, then the footer byte 'E'
//	MANIFEST          "DPM1\n" + digest + uvarint(nextSeq) +
//	                  uvarint(nSegs) + nSegs × uvarint(seq) +
//	                  uvarint(nIDs) + nIDs × (uvarint len, id bytes)
//
// Invariants:
//
//   - A segment is visible if and only if its seq is listed in MANIFEST.
//     Segments are written to a temp file, fsynced, renamed, and the
//     directory fsynced *before* the manifest that lists them is installed
//     (same temp/fsync/rename protocol), so a crash at any instant leaves
//     either the old manifest (new segment is an unreferenced orphan) or
//     the new one (segment is complete). Recovery deletes any seg-*.dps or
//     *.tmp file the manifest does not list — that is how partially
//     written segments are discarded.
//
//   - The manifest's applied-ID set is captured at memtable-flush time
//     only. Compaction rewrites the segment list but must NOT refresh the
//     IDs: batches applied since the last flush live only in WAL +
//     memtable, and recovery re-applies exactly the WAL batches whose IDs
//     the manifest does not contain. Writing a younger ID set without
//     flushing the memtable would make recovery skip batches whose records
//     were lost with the process — acknowledged-batch loss.
//
//   - Segment files are immutable once renamed into place. Compaction
//     writes a brand-new segment (fresh seq from nextSeq, which the
//     manifest persists so orphan seqs are never reused for live data
//     while an orphan file still exists) and deletes the inputs only after
//     the swapped manifest is durable.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"deltapath/internal/analysisio"
	"deltapath/internal/profile"
)

const (
	segmentMagic  = "DPS2\n"
	manifestMagic = "DPM1\n"
	manifestName  = "MANIFEST"
	// segmentFooter terminates a complete segment; OpenSegment checks it so
	// a manifest-listed file that somehow lost its tail is refused loudly
	// instead of silently under-counting.
	segmentFooter = 'E'
)

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.dps", seq))
}

// Segment is one immutable sorted run of (record, count) pairs on disk.
type Segment struct {
	Path  string
	Seq   uint64
	Pairs uint64 // distinct records
	Total uint64 // sum of counts
	Bytes int64  // file size
}

// segmentWriter streams sorted pairs into a temp file and installs the
// segment atomically on Close. Add must be called in strictly ascending
// key order (the writer enforces it — a mis-sorted segment would corrupt
// every future merge).
type segmentWriter struct {
	dir     string
	tmp     string
	path    string
	seq     uint64
	f       *os.File
	bw      *bufio.Writer
	pairs   uint64
	total   uint64
	hdrOff  int64 // file offset of the fixed pairs/total fields
	prevKey []byte
	scratch []byte
}

// newSegmentWriter starts segment seq in dir. The pairs/total header
// fields are fixed-width and written as zero placeholders, then patched in
// Close — so the writer streams arbitrarily large merges without knowing
// the pair count up front.
func newSegmentWriter(dir string, digest analysisio.GraphDigest, seq uint64) (*segmentWriter, error) {
	path := segmentPath(dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr bytes.Buffer
	hdr.WriteString(segmentMagic)
	if err := profile.WriteDigest(&hdr, digest); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	var seqBuf [8]byte
	binary.LittleEndian.PutUint64(seqBuf[:], seq)
	hdr.Write(seqBuf[:])
	hdrOff := int64(hdr.Len())
	hdr.Write(make([]byte, 16)) // pairs + total placeholders
	if _, err := f.Write(hdr.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &segmentWriter{
		dir: dir, tmp: tmp, path: path, seq: seq,
		f: f, bw: bufio.NewWriterSize(f, 1<<16), hdrOff: hdrOff,
	}, nil
}

// Add appends one pair. Keys must arrive in strictly ascending byte order.
func (w *segmentWriter) Add(key []byte, count uint64) error {
	if w.pairs > 0 && bytes.Compare(key, w.prevKey) <= 0 {
		return fmt.Errorf("segment %s: keys out of order", w.tmp)
	}
	w.prevKey = append(w.prevKey[:0], key...)
	w.scratch = profile.AppendRecord(w.scratch[:0], key, count)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.pairs++
	w.total += count
	return nil
}

// Close writes the footer, patches the pair/total counts into the header,
// fsyncs, and renames the segment into place (directory fsynced). On any
// error the temp file is removed and nothing becomes visible.
func (w *segmentWriter) Close() (*Segment, error) {
	install := func() error {
		if err := w.bw.WriteByte(segmentFooter); err != nil {
			return err
		}
		if err := w.bw.Flush(); err != nil {
			return err
		}
		var cnt [16]byte
		binary.LittleEndian.PutUint64(cnt[:8], w.pairs)
		binary.LittleEndian.PutUint64(cnt[8:], w.total)
		if _, err := w.f.WriteAt(cnt[:], w.hdrOff); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		return w.f.Close()
	}
	if err := install(); err != nil {
		w.f.Close()
		os.Remove(w.tmp)
		return nil, err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return nil, err
	}
	if err := syncDir(w.dir); err != nil {
		return nil, err
	}
	fi, err := os.Stat(w.path)
	if err != nil {
		return nil, err
	}
	return &Segment{Path: w.path, Seq: w.seq, Pairs: w.pairs, Total: w.total, Bytes: fi.Size()}, nil
}

// Abort discards the temp file without installing anything.
func (w *segmentWriter) Abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// writeSegment materializes sorted records as segment seq — the memtable
// flush path (records come from Store.Snapshot, already key-sorted).
func writeSegment(dir string, digest analysisio.GraphDigest, seq uint64, recs []profile.Record) (*Segment, error) {
	w, err := newSegmentWriter(dir, digest, seq)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Add(r.Key, r.Count); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Close()
}

// OpenSegment validates a manifest-listed segment: magic, digest, seq
// consistency, and the completion footer.
func OpenSegment(path string, want analysisio.GraphDigest) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr, err := readSegmentHeader(br, path, want)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < 1 {
		return nil, fmt.Errorf("segment %s: empty file", path)
	}
	var foot [1]byte
	if _, err := f.ReadAt(foot[:], fi.Size()-1); err != nil {
		return nil, fmt.Errorf("segment %s: footer: %w", path, err)
	}
	if foot[0] != segmentFooter {
		return nil, fmt.Errorf("segment %s: missing completion footer (partial write?)", path)
	}
	hdr.Path = path
	hdr.Bytes = fi.Size()
	return hdr, nil
}

// readSegmentHeader parses the fixed segment header, leaving br positioned
// at the first pair.
func readSegmentHeader(br *bufio.Reader, path string, want analysisio.GraphDigest) (*Segment, error) {
	head := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("segment %s: truncated header: %w", path, err)
	}
	if string(head) != segmentMagic {
		return nil, fmt.Errorf("segment %s: bad magic %q", path, head)
	}
	digest, err := profile.ReadDigest(br)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	if digest != want {
		return nil, fmt.Errorf("segment %s: recorded under %s, analysis graph is %s: %w",
			path, digest, want, ErrDigestMismatch)
	}
	var fixed [24]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("segment %s: truncated header: %w", path, err)
	}
	return &Segment{
		Seq:   binary.LittleEndian.Uint64(fixed[:8]),
		Pairs: binary.LittleEndian.Uint64(fixed[8:16]),
		Total: binary.LittleEndian.Uint64(fixed[16:24]),
	}, nil
}

// pairIter yields (key, count) pairs in ascending key order; next returns
// io.EOF after the last pair. The returned key is only valid until the
// following next call.
type pairIter interface {
	next() (key []byte, count uint64, err error)
	close() error
}

// segmentIter streams one segment file. Every key is read into one buffer
// the iterator reuses, which the pairIter contract allows.
type segmentIter struct {
	f         *os.File
	br        *bufio.Reader
	path      string
	remaining uint64
	buf       []byte
}

// iter opens a streaming reader over the segment's pairs.
func (s *Segment) iter(digest analysisio.GraphDigest) (*segmentIter, error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	hdr, err := readSegmentHeader(br, s.Path, digest)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segmentIter{f: f, br: br, path: s.Path, remaining: hdr.Pairs}, nil
}

func (it *segmentIter) next() ([]byte, uint64, error) {
	if it.remaining == 0 {
		foot, err := it.br.ReadByte()
		if err != nil || foot != segmentFooter {
			return nil, 0, fmt.Errorf("segment %s: missing completion footer", it.path)
		}
		return nil, 0, io.EOF
	}
	key, count, err := profile.ReadRecordInto(it.br, it.buf)
	if err != nil {
		return nil, 0, fmt.Errorf("segment %s: %w", it.path, err)
	}
	it.buf = key
	it.remaining--
	return key, count, nil
}

func (it *segmentIter) close() error { return it.f.Close() }

// memPairs iterates a memtable snapshot (already key-sorted).
type memPairs struct {
	recs []profile.Record
	i    int
}

func (m *memPairs) next() ([]byte, uint64, error) {
	if m.i >= len(m.recs) {
		return nil, 0, io.EOF
	}
	r := m.recs[m.i]
	m.i++
	return r.Key, r.Count, nil
}

func (m *memPairs) close() error { return nil }

// mergeIter k-way-merges sorted pair sources, summing the counts of equal
// keys, and yields a single ascending, deduplicated pair stream. Memory is
// O(sources), independent of how many pairs flow through — the property
// the /query endpoint's streaming bound rests on.
type mergeIter struct {
	srcs    []pairIter
	heads   [][]byte // current key per source (nil = exhausted)
	counts  []uint64
	ordered []int // source indices with live heads, sorted by (key, index)
	key     []byte
}

// newMergeIter takes ownership of srcs (they are closed by close, or here
// on error) and primes the merge.
func newMergeIter(srcs []pairIter) (*mergeIter, error) {
	m := &mergeIter{
		srcs:   srcs,
		heads:  make([][]byte, len(srcs)),
		counts: make([]uint64, len(srcs)),
	}
	for i := range srcs {
		if err := m.advance(i); err != nil {
			m.close()
			return nil, err
		}
	}
	for i, h := range m.heads {
		if h != nil {
			m.ordered = append(m.ordered, i)
		}
	}
	m.sortLive()
	return m, nil
}

func (m *mergeIter) sortLive() {
	sort.Slice(m.ordered, func(a, b int) bool {
		ia, ib := m.ordered[a], m.ordered[b]
		if c := bytes.Compare(m.heads[ia], m.heads[ib]); c != 0 {
			return c < 0
		}
		return ia < ib
	})
}

// advance pulls the next pair from source i into heads/counts. The key is
// copied: pairIter keys are only valid until the next call, but merge
// heads must survive across pulls from other sources.
func (m *mergeIter) advance(i int) error {
	key, count, err := m.srcs[i].next()
	if err == io.EOF {
		m.heads[i] = nil
		return nil
	}
	if err != nil {
		return err
	}
	if len(key) == 0 {
		// A zero-length record cannot occur (profile.Writer rejects empty
		// records), and nil is the exhaustion sentinel — refuse rather
		// than silently dropping the source.
		return fmt.Errorf("merge: empty key from source %d", i)
	}
	m.heads[i] = append(m.heads[i][:0], key...)
	m.counts[i] = count
	return nil
}

// next returns the smallest un-yielded key with the summed count of every
// source holding it. Returns io.EOF when all sources are exhausted. The
// key is valid until the following next call.
func (m *mergeIter) next() ([]byte, uint64, error) {
	// Drop exhausted sources off the front.
	for len(m.ordered) > 0 && m.heads[m.ordered[0]] == nil {
		m.ordered = m.ordered[1:]
	}
	if len(m.ordered) == 0 {
		return nil, 0, io.EOF
	}
	first := m.ordered[0]
	m.key = append(m.key[:0], m.heads[first]...)
	var total uint64
	// Sum every source whose head equals key, advancing each.
	for _, i := range m.ordered {
		if m.heads[i] == nil || !bytes.Equal(m.heads[i], m.key) {
			continue
		}
		total += m.counts[i]
		if err := m.advance(i); err != nil {
			return nil, 0, err
		}
	}
	m.sortLive()
	return m.key, total, nil
}

func (m *mergeIter) close() {
	for _, s := range m.srcs {
		s.close()
	}
}

// manifest is the durable registry of a tenant's live segments.
type manifest struct {
	NextSeq    uint64
	Segments   []uint64 // live segment seqs, oldest first
	AppliedIDs []string // idempotency set as of the last memtable flush
}

// writeManifest atomically installs m (temp, fsync, rename, dir fsync).
func writeManifest(dir string, digest analysisio.GraphDigest, m *manifest) error {
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(manifestMagic)
	if err := profile.WriteDigest(bw, digest); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, m.NextSeq)
	buf = binary.AppendUvarint(buf, uint64(len(m.Segments)))
	for _, seq := range m.Segments {
		buf = binary.AppendUvarint(buf, seq)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.AppliedIDs)))
	for _, id := range m.AppliedIDs {
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
	}
	if _, err := bw.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// readManifest loads dir's manifest. ok=false (no error) when none exists
// — a fresh tenant, or one still on the DPS1 snapshot layout, which
// newTenant refuses.
func readManifest(dir string, want analysisio.GraphDigest) (*manifest, bool, error) {
	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, false, fmt.Errorf("manifest %s: truncated header: %w", path, err)
	}
	if string(head) != manifestMagic {
		return nil, false, fmt.Errorf("manifest %s: bad magic %q", path, head)
	}
	digest, err := profile.ReadDigest(br)
	if err != nil {
		return nil, false, fmt.Errorf("manifest %s: %w", path, err)
	}
	if digest != want {
		return nil, false, fmt.Errorf("manifest %s: recorded under %s, analysis graph is %s: %w",
			path, digest, want, ErrDigestMismatch)
	}
	m := &manifest{}
	if m.NextSeq, err = binary.ReadUvarint(br); err != nil {
		return nil, false, fmt.Errorf("manifest %s: next seq: %w", path, err)
	}
	nSegs, err := binary.ReadUvarint(br)
	if err != nil || nSegs > 1<<20 {
		return nil, false, fmt.Errorf("manifest %s: bad segment count (%v)", path, err)
	}
	for i := uint64(0); i < nSegs; i++ {
		seq, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, false, fmt.Errorf("manifest %s: segment %d: %w", path, i, err)
		}
		m.Segments = append(m.Segments, seq)
	}
	nIDs, err := binary.ReadUvarint(br)
	if err != nil || nIDs > 1<<24 {
		return nil, false, fmt.Errorf("manifest %s: bad applied-ID count (%v)", path, err)
	}
	for i := uint64(0); i < nIDs; i++ {
		idLen, err := binary.ReadUvarint(br)
		if err != nil || idLen == 0 || idLen > 1024 {
			return nil, false, fmt.Errorf("manifest %s: applied ID %d: bad length (%v)", path, i, err)
		}
		id := make([]byte, idLen)
		if _, err := io.ReadFull(br, id); err != nil {
			return nil, false, fmt.Errorf("manifest %s: applied ID %d: %w", path, i, err)
		}
		m.AppliedIDs = append(m.AppliedIDs, string(id))
	}
	return m, true, nil
}

// segmentSet is a tenant's live segment list plus the manifest state that
// makes it durable. The mutex serializes the three manifest writers
// (memtable flush, compaction, recovery migration) against each other and
// against query iterator opens, so every reader sees a (segments,
// memtable) pair from one instant.
type segmentSet struct {
	mu     sync.Mutex
	dir    string
	digest analysisio.GraphDigest

	nextSeq uint64
	segs    []*Segment // oldest first
	// manifestIDs is the applied-ID set as of the last memtable flush —
	// the ONLY ID set a manifest may carry (see the package comment's
	// compaction invariant).
	manifestIDs []string
}

func (ss *segmentSet) allocSeq() uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	seq := ss.nextSeq
	ss.nextSeq++
	return seq
}

// list returns a point-in-time copy of the live segments.
func (ss *segmentSet) list() []*Segment {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]*Segment(nil), ss.segs...)
}

func (ss *segmentSet) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.segs)
}

func (ss *segmentSet) totalRecords() uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var n uint64
	for _, sg := range ss.segs {
		n += sg.Total
	}
	return n
}

func (ss *segmentSet) manifestLocked() *manifest {
	m := &manifest{NextSeq: ss.nextSeq, AppliedIDs: ss.manifestIDs}
	for _, sg := range ss.segs {
		m.Segments = append(m.Segments, sg.Seq)
	}
	return m
}

// replaceCompacted installs merged in place of the old segments (which
// must be a prefix of the live list — flushes only append) and deletes the
// inputs once the swapped manifest is durable. The applied-ID set is
// deliberately left at its last-flush value.
func (ss *segmentSet) replaceCompacted(old []*Segment, merged *Segment) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(old) > len(ss.segs) {
		return fmt.Errorf("compaction: input list longer than live list")
	}
	for i, sg := range old {
		if ss.segs[i] != sg {
			return fmt.Errorf("compaction: live segment list changed under the merge")
		}
	}
	newSegs := append([]*Segment{merged}, ss.segs[len(old):]...)
	prev := ss.segs
	ss.segs = newSegs
	if err := writeManifest(ss.dir, ss.digest, ss.manifestLocked()); err != nil {
		ss.segs = prev
		return err
	}
	// Manifest is durable: the inputs are unreferenced. Deleting them is
	// safe even with reader iterators open (POSIX keeps unlinked files
	// readable through existing descriptors), and a crash before a delete
	// only leaves orphans for recovery to discard.
	for _, sg := range old {
		os.Remove(sg.Path)
	}
	return nil
}

// discardOrphans deletes every seg-*.dps and *.tmp in dir that live does
// not reference, returning how many files were discarded. Called during
// recovery, before any new segment can be written.
func discardOrphans(dir string, live []*Segment) (int, error) {
	keep := make(map[string]bool, len(live))
	for _, sg := range live {
		keep[filepath.Base(sg.Path)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	discarded := 0
	for _, e := range entries {
		name := e.Name()
		isTmp := filepath.Ext(name) == ".tmp"
		isSeg := len(name) > 4 && name[:4] == "seg-" && filepath.Ext(name) == ".dps"
		if (!isTmp && !isSeg) || keep[name] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return discarded, err
		}
		discarded++
	}
	return discarded, nil
}
