package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
	"deltapath/internal/obs"
	"deltapath/internal/profile"
)

// maxAppliedIDs bounds the per-tenant idempotency window: the most recent
// batch IDs kept for duplicate detection. An agent retry storm spans
// seconds; 65536 batches is hours of headroom at any plausible push rate,
// and the FIFO eviction keeps the set (and the manifest that persists it)
// bounded forever.
const maxAppliedIDs = 65536

// batchResult is what the worker reports back to the waiting ingest
// handler.
type batchResult struct {
	err         error
	duplicate   bool
	quarantined int
	applied     int
}

// batch is one ingest request queued for a tenant's worker. recs are
// already canonical — the handler ran canonicalize before enqueueing —
// and quarantined carries the count of records it dropped doing so, so
// the worker can ack the full accounting without re-validating.
type batch struct {
	id          string
	recs        []profile.Record
	quarantined int
	// enqueuedAt feeds the commit-wait histogram: how long the batch sat
	// between entering the queue and its group's fsync completing.
	enqueuedAt time.Time
	// done receives exactly one result; buffered so the worker never
	// blocks on a handler whose client has gone away.
	done chan batchResult
}

// TenantHealth is a tenant's health counters, as served by /healthz.
type TenantHealth struct {
	Name           string `json:"name"`
	Digest         string `json:"digest"`
	Epoch          uint64 `json:"epoch"`
	Records        uint64 `json:"records"`
	Unique         uint64 `json:"unique_contexts"`
	Batches        uint64 `json:"batches_applied"`
	DupBatches     uint64 `json:"duplicate_batches"`
	Shed           uint64 `json:"batches_shed"`
	QueueLen       int    `json:"queue_len"`
	QueueCap       int    `json:"queue_cap"`
	WALBytes       int64  `json:"wal_bytes"`
	Snapshots      uint64 `json:"snapshots"`
	Replayed       uint64 `json:"wal_replayed_records"`
	TruncatedTails uint64 `json:"wal_truncated_tails"`

	// Segment-store shape: live segment files, approximate memtable
	// bytes, compaction passes, partially written segments discarded
	// during recovery, and how many fsyncs the group-commit loop issued
	// (batches_applied / group_fsyncs is the amortization factor).
	Segments      int    `json:"segments"`
	MemtableBytes uint64 `json:"memtable_bytes"`
	Compactions   uint64 `json:"compactions"`
	Orphans       uint64 `json:"orphan_segments_discarded"`
	GroupFsyncs   uint64 `json:"group_fsyncs"`

	// Quarantine counters, typed by decode-error class. Quarantined
	// records are counted and skipped; the batch they arrived in still
	// succeeds — graceful degradation, not batch failure.
	QuarantinedCorrupt  uint64 `json:"quarantined_corrupt_encoding"`
	QuarantinedNoEdge   uint64 `json:"quarantined_no_matching_edge"`
	QuarantinedResidual uint64 `json:"quarantined_residual_id"`
	QuarantinedMangled  uint64 `json:"quarantined_unparseable"`
}

// groupCommitWindow caps how long a commit group is held open for late
// joiners before its fsync. The hold is not a fixed sleep: the worker
// waits only while the tenant's inflight gauge shows handlers actually
// processing a request that has not reached the queue yet — the agents
// the previous fsync acked, mid-flight with their next batch. The moment
// every known pusher is either queued or idle the group commits, so a
// solo pusher never waits and the cap only bounds ack latency against a
// handler stuck mid-request.
const groupCommitWindow = 500 * time.Microsecond

// tenant is one analysis digest's ingestion state: a bounded queue feeding
// a single worker that owns the WAL, the memtable, and the applied-batch
// set, plus a background compactor that owns segment merges.
type tenant struct {
	name   string
	digest analysisio.GraphDigest
	epoch  uint64
	dec    *encoding.CompiledDecoder
	graph  *callgraph.Graph
	dir    string
	reg    *obs.Registry

	queue chan *batch
	// mem is the hot memtable. Only the worker swaps it (at flush);
	// queries load it through the segment-set mutex so they see a
	// (segments, memtable) pair from one instant — never a record both in
	// a fresh segment and in the memtable that was flushed into it.
	mem  atomic.Pointer[profile.Store]
	segs *segmentSet
	wal  *WAL // owned by the worker goroutine after start

	// stop is closed by beginDrain. The queue channel itself is never
	// closed — producers send on it concurrently with shutdown, and a
	// send on a closed channel panics even inside a select.
	stop chan struct{}
	// drainCtx bounds the post-stop drain. Written by beginDrain before
	// it closes stop; the worker reads it only after observing stop
	// closed, so the channel close is the happens-before edge.
	drainCtx context.Context

	// prodMu serializes producers against shutdown: enqueue holds it
	// shared, beginDrain exclusively. Once beginDrain returns, no
	// producer can touch the queue, so the worker may drain it to empty.
	prodMu  sync.RWMutex
	stopped bool

	walMaxBytes int64
	memMaxBytes int64
	// groupMax caps how many queued batches one fsync may absorb
	// (QueueDepth by default; 1 restores the seed's per-batch fsync).
	groupMax   int
	compactMin int

	// compactKick wakes the compactor (capacity 1: a pending kick absorbs
	// further ones). The compactor exits on stop; shutdown waits for it
	// before the final flush so manifests never interleave past close.
	compactKick chan struct{}
	compactWG   sync.WaitGroup

	// applied is the idempotency set; order is its FIFO eviction ring.
	// Owned by the worker (reads from the handler go through appliedHas).
	appliedMu sync.RWMutex
	applied   map[string]struct{}
	order     []string

	// inflight counts ingest handlers between accepting a request body and
	// resolving it (enqueued, refused, or failed). The worker reads it to
	// decide whether holding the current commit group open can still gain a
	// joiner; see run.
	inflight atomic.Int64

	// Health counters (atomics: written by worker, read by /healthz).
	totalRecords   atomic.Uint64 // Σ counts across segments + memtable
	batches        atomic.Uint64
	dupBatches     atomic.Uint64
	shed           atomic.Uint64
	snapshots      atomic.Uint64 // memtable flushes (field name kept for health compat)
	groupFsyncs    atomic.Uint64
	compactions    atomic.Uint64
	orphans        atomic.Uint64
	replayed       atomic.Uint64
	truncatedTails atomic.Uint64
	qCorrupt       atomic.Uint64
	qNoEdge        atomic.Uint64
	qResidual      atomic.Uint64
	qMangled       atomic.Uint64

	wg sync.WaitGroup
}

// newTenant opens (or creates) a tenant's durable state under dir and
// recovers it: the segment manifest first (migrating a legacy DPS1
// snapshot into the segment layout if that is what is on disk), then
// orphaned segment files are discarded, then committed WAL entries not in
// the manifest's applied set are replayed into a fresh memtable, and the
// WAL is reopened for appends past its committed prefix. Every file is
// refused on a digest mismatch.
func newTenant(name string, bundle *analysisio.Bundle, dir string, cfg Config, reg *obs.Registry) (*tenant, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	groupMax := cfg.QueueDepth
	if cfg.NoGroupCommit || groupMax < 1 {
		groupMax = 1
	}
	t := &tenant{
		name:        name,
		digest:      bundle.Digest,
		epoch:       bundle.Epoch,
		dec:         encoding.Compile(bundle.Spec),
		graph:       bundle.Graph,
		dir:         dir,
		reg:         reg,
		queue:       make(chan *batch, cfg.QueueDepth),
		stop:        make(chan struct{}),
		drainCtx:    context.Background(),
		walMaxBytes: cfg.WALMaxBytes,
		memMaxBytes: cfg.MemtableMaxBytes,
		groupMax:    groupMax,
		compactMin:  cfg.CompactMinSegments,
		compactKick: make(chan struct{}, 1),
		applied:     make(map[string]struct{}),
		segs:        &segmentSet{dir: dir, digest: bundle.Digest},
	}
	mem := profile.NewStore(0)
	mem.Observe(reg)
	t.mem.Store(mem)

	man, ok, err := readManifest(dir, t.digest)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	if !ok {
		man, err = t.migrateLegacySnapshot()
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
	} else {
		// A lingering snapshot.dps next to a manifest is the leftover of
		// a crash between manifest install and snapshot delete during
		// migration — the manifest is authoritative.
		os.Remove(t.snapshotPath())
	}
	if man != nil {
		t.segs.nextSeq = man.NextSeq
		t.segs.manifestIDs = man.AppliedIDs
		for _, seq := range man.Segments {
			seg, err := OpenSegment(segmentPath(dir, seq), t.digest)
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
			if seg.Seq != seq {
				return nil, fmt.Errorf("tenant %s: segment %s records seq %d, manifest says %d",
					name, seg.Path, seg.Seq, seq)
			}
			t.segs.segs = append(t.segs.segs, seg)
		}
		for _, id := range man.AppliedIDs {
			t.applied[id] = struct{}{}
			t.order = append(t.order, id)
		}
	}
	discarded, err := discardOrphans(dir, t.segs.segs)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	t.orphans.Add(uint64(discarded))
	t.totalRecords.Store(t.segs.totalRecords())

	replay, err := ReplayWAL(t.walPath(), t.digest)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	if replay.TruncatedTail {
		t.truncatedTails.Add(1)
	}
	for _, b := range replay.Batches {
		if _, dup := t.applied[b.ID]; dup {
			continue // already persisted in a segment
		}
		applied, _ := t.applyRecords(b.Records)
		t.replayed.Add(uint64(applied))
		t.rememberApplied(b.ID)
	}

	if _, statErr := os.Stat(t.walPath()); os.IsNotExist(statErr) || replay.CommittedSize == 0 {
		// No WAL, or one whose header was torn by a crash mid-Reset
		// (CommittedSize 0 — a readable header alone is already > 0):
		// start a fresh header-only file.
		t.wal, err = CreateWAL(t.walPath(), t.digest)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
	} else {
		t.wal, err = openWALForAppend(t.walPath(), t.digest, replay.CommittedSize)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
	}
	return t, nil
}

// migrateLegacySnapshot converts a pre-segment DPS1 monolith into the
// segment layout: its records become segment 0, its applied set the
// manifest's. Returns nil when there is nothing on disk. Crash-safe: the
// snapshot is deleted only after the manifest is durable, and a re-run
// overwrites the same segment 0.
func (t *tenant) migrateLegacySnapshot() (*manifest, error) {
	snap, err := ReadSnapshot(t.snapshotPath(), t.digest)
	if err != nil {
		return nil, err
	}
	if len(snap.AppliedIDs) == 0 && len(snap.Records) == 0 {
		return nil, nil
	}
	man := &manifest{NextSeq: 1, AppliedIDs: snap.AppliedIDs}
	if len(snap.Records) > 0 {
		recs := snap.Records
		sort.Slice(recs, func(i, j int) bool {
			return string(recs[i].Key) < string(recs[j].Key)
		})
		if _, err := writeSegment(t.dir, t.digest, 0, recs); err != nil {
			return nil, err
		}
		man.Segments = []uint64{0}
	}
	if err := writeManifest(t.dir, t.digest, man); err != nil {
		return nil, err
	}
	os.Remove(t.snapshotPath())
	return man, nil
}

func (t *tenant) walPath() string      { return filepath.Join(t.dir, "wal.log") }
func (t *tenant) snapshotPath() string { return filepath.Join(t.dir, "snapshot.dps") }

// records reports the tenant's aggregate hit count: everything in
// segments plus the memtable.
func (t *tenant) records() uint64 { return t.totalRecords.Load() }

// openMerge opens a k-way merge over the tenant's segments plus the
// memtable, capturing both under the segment-set mutex so the view is one
// instant's. The caller must close the iterator.
func (t *tenant) openMerge() (*mergeIter, error) {
	t.segs.mu.Lock()
	defer t.segs.mu.Unlock()
	iters := make([]pairIter, 0, len(t.segs.segs)+1)
	for _, sg := range t.segs.segs {
		it, err := sg.iter(t.digest)
		if err != nil {
			for _, o := range iters {
				o.close()
			}
			return nil, err
		}
		iters = append(iters, it)
	}
	iters = append(iters, &memPairs{recs: t.mem.Load().Snapshot()})
	return newMergeIter(iters)
}

// uniqueContexts counts distinct records across segments + memtable. With
// segments on disk this is a merge scan — O(1) memory, O(store) I/O — so
// it is priced for /healthz polls, not hot paths.
func (t *tenant) uniqueContexts() uint64 {
	t.segs.mu.Lock()
	nSegs := len(t.segs.segs)
	var segPairs uint64
	if nSegs == 1 {
		segPairs = t.segs.segs[0].Pairs
	}
	memUnique := t.mem.Load().Unique()
	t.segs.mu.Unlock()
	if nSegs == 0 {
		return memUnique
	}
	if nSegs == 1 && memUnique == 0 {
		return segPairs
	}
	mi, err := t.openMerge()
	if err != nil {
		return 0
	}
	defer mi.close()
	var n uint64
	for {
		if _, _, err := mi.next(); err != nil {
			return n
		}
		n++
	}
}

// decodeRecord renders one context record through the compiled decoder.
func (t *tenant) decodeRecord(rec []byte) (string, error) {
	st, end, err := encoding.UnmarshalContext(rec)
	if err != nil {
		return "", err
	}
	names, err := t.dec.DecodeNames(st, end)
	if err != nil {
		return "", err
	}
	return strings.Join(names, " > "), nil
}

// canonicalize validates a batch's records and rewrites the survivors into
// canonical bytes. Records that fail to decode are quarantined — counted by
// error class and dropped — so one corrupt agent cannot fail a batch or
// poison the store. The canonical re-marshal makes byte-key identity in the
// segment store coincide with decoded-context identity (varint-padded
// duplicates of the same context merge instead of splitting a row).
// Validation decodes into one frame buffer reused across the batch and
// renders no names.
//
// This is the CPU-heavy half of record application, and it is deliberately
// NOT worker-owned: the ingest handler calls it from its own goroutine
// before enqueueing, so validation of the next batches overlaps the
// worker's fsync instead of serializing behind it. Only the compiled
// decoder (lock-free, safe for concurrent use) and atomic counters are
// touched — safe from any goroutine.
func (t *tenant) canonicalize(recs []profile.Record) (clean []profile.Record, quarantined int) {
	clean = recs[:0]
	var frames []encoding.Frame
	for _, r := range recs {
		st, end, err := encoding.UnmarshalContext(r.Key)
		if err == nil {
			frames, err = t.dec.DecodeInto(frames, st, end)
		}
		if err != nil {
			switch {
			case errors.Is(err, encoding.ErrNoMatchingEdge):
				t.qNoEdge.Add(1)
			case errors.Is(err, encoding.ErrResidualID):
				t.qResidual.Add(1)
			case errors.Is(err, encoding.ErrCorruptEncoding):
				t.qCorrupt.Add(1)
			default:
				t.qMangled.Add(1)
			}
			quarantined++
			continue
		}
		clean = append(clean, profile.Record{Key: encoding.MarshalContext(st, end), Count: r.Count})
	}
	return clean, quarantined
}

// applyCanonical interns already-canonicalized records into the memtable —
// the worker-owned half of application, kept minimal so the commit loop
// spends its serial budget on fsyncs, not decoding.
func (t *tenant) applyCanonical(recs []profile.Record) (applied int) {
	mem := t.mem.Load()
	for _, r := range recs {
		mem.AddCount(r.Key, r.Count)
		t.totalRecords.Add(r.Count)
		applied++
	}
	return applied
}

// applyRecords validates, canonicalizes, and interns raw records — the
// WAL-replay path, where no handler has pre-validated the batch.
func (t *tenant) applyRecords(recs []profile.Record) (applied, quarantined int) {
	clean, quarantined := t.canonicalize(recs)
	return t.applyCanonical(clean), quarantined
}

// rememberApplied records a batch ID in the idempotency set, evicting the
// oldest ID past the cap.
func (t *tenant) rememberApplied(id string) {
	t.appliedMu.Lock()
	defer t.appliedMu.Unlock()
	if _, ok := t.applied[id]; ok {
		return
	}
	t.applied[id] = struct{}{}
	t.order = append(t.order, id)
	if len(t.order) > maxAppliedIDs {
		delete(t.applied, t.order[0])
		t.order = t.order[1:]
	}
}

func (t *tenant) appliedHas(id string) bool {
	t.appliedMu.RLock()
	defer t.appliedMu.RUnlock()
	_, ok := t.applied[id]
	return ok
}

// enqueue attempts a non-blocking enqueue. ok=false with draining=true
// means shutdown has begun and the caller must answer 503; draining=false
// means the queue is full and the caller must shed with 429.
func (t *tenant) enqueue(b *batch) (ok, draining bool) {
	t.prodMu.RLock()
	defer t.prodMu.RUnlock()
	if t.stopped {
		return false, true
	}
	b.enqueuedAt = time.Now()
	select {
	case t.queue <- b:
		return true, false
	default:
		t.shed.Add(1)
		return false, false
	}
}

// beginDrain transitions the tenant into shutdown: producers are cut off
// (enqueue reports draining from here on), ctx becomes the drain budget,
// and the worker is signalled. The exclusive lock waits out any producer
// already inside enqueue, so when this returns the queue's content is
// frozen and the worker alone touches it. Idempotent.
func (t *tenant) beginDrain(ctx context.Context) {
	t.prodMu.Lock()
	already := t.stopped
	t.stopped = true
	t.prodMu.Unlock()
	if already {
		return
	}
	t.drainCtx = ctx
	close(t.stop)
}

// run is the tenant's worker loop: group-commit queued batches until
// beginDrain signals shutdown, then drain what remains under the drain
// context's deadline, retire the compactor, and flush a final segment.
// m carries the server-wide metric sinks.
func (t *tenant) run(m *metrics) {
	defer t.wg.Done()
	t.compactWG.Add(1)
	go t.compactLoop(m)
	group := make([]*batch, 0, t.groupMax)
	for {
		// Poll stop first: a two-way select picks randomly when both are
		// ready, which would let the normal branch keep applying batches
		// past an already-expired drain deadline.
		select {
		case <-t.stop:
			t.shutdown(m)
			return
		default:
		}
		select {
		case b := <-t.queue:
			// Group commit: everything that queued up while the previous
			// fsync ran rides the next one. The first receive blocks (no
			// busy loop); the rest are drained without blocking.
			group = append(group[:0], b)
		fill:
			for len(group) < t.groupMax {
				select {
				case more := <-t.queue:
					group = append(group, more)
				default:
					break fill
				}
			}
			// Commit hold: handlers still mid-request (inflight) are
			// pushers this fsync could absorb — every joiner halves that
			// agent's fsync share. Hold the group open until no pusher is
			// inbound or the window cap expires, whichever is first. The
			// hold runs even for a singleton drain: right after a group
			// ack, the first re-pusher's batch often arrives while its
			// cohort is still runnable-but-unscheduled, showing a
			// momentarily empty queue and a zero gauge — committing on
			// that evidence would pin the group size at whatever the
			// scheduler happened to interleave. A true solo pusher exits
			// via the idle confirmation in a few yields; the cap only
			// bites when a handler stalls mid-request (slow body read).
			if t.groupMax > 1 {
				// Gosched, not Sleep: the point is to hand the CPU to the
				// handler goroutines carrying the joiners' requests, and a
				// timer sleep overshoots the window by more than the window.
				deadline := time.Now().Add(groupCommitWindow)
				idle := 0
			hold:
				for len(group) < t.groupMax && time.Now().Before(deadline) {
					select {
					case more := <-t.queue:
						group = append(group, more)
						idle = 0
					default:
						if t.inflight.Load() == 0 {
							// An agent this commit would ack late is often
							// runnable but not yet scheduled (it was just
							// acked and is turning its next batch around),
							// so a momentary zero is not proof the fleet
							// went quiet. Yield a few quanta and only
							// commit once the gauge stays zero.
							idle++
							if idle > 2 {
								break hold
							}
						} else {
							idle = 0
						}
						runtime.Gosched()
					}
				}
			}
			t.commitGroup(group, m)
			m.queueDepth.Set(uint64(len(t.queue)))
			t.maybeFlush(m)
		case <-t.stop:
			t.shutdown(m)
			return
		}
	}
}

// shutdown finishes the worker: drain the frozen queue, wait out the
// compactor (it observed stop), then flush so restart recovery replays an
// empty WAL tail.
func (t *tenant) shutdown(m *metrics) {
	t.drain(m)
	t.compactWG.Wait()
	t.flush(m)
	t.wal.Close()
}

// drain empties the queue after shutdown began. beginDrain has already cut
// producers off, so the queue only shrinks here. Batches still queued past
// the drain deadline are refused — none of them were acknowledged, so the
// agent re-sends them.
func (t *tenant) drain(m *metrics) {
	for {
		select {
		case b := <-t.queue:
			if t.drainCtx.Err() != nil {
				b.done <- batchResult{err: fmt.Errorf("server draining: %w", t.drainCtx.Err())}
				continue
			}
			t.commitGroup([]*batch{b}, m)
			m.queueDepth.Set(uint64(len(t.queue)))
			t.maybeFlush(m)
		default:
			return
		}
	}
}

// commitGroup processes one commit group end to end: idempotency
// partition, one durable WAL append+fsync for every fresh batch, then
// per-batch validate + intern + acknowledge. Acknowledgements are sent
// only after the group's fsync — the fsync-before-ack contract is the
// same as the seed's, amortized.
func (t *tenant) commitGroup(group []*batch, m *metrics) {
	fresh := make([]*batch, 0, len(group))
	// inGroup catches an ID appearing twice within one group: the second
	// occurrence must not be acknowledged as a duplicate until the first
	// is actually durable, so it is parked and answered after the fsync.
	inGroup := make(map[string]bool, len(group))
	var parked []*batch
	for _, b := range group {
		switch {
		case t.appliedHas(b.id):
			t.dupBatches.Add(1)
			m.dupBatches.Inc()
			b.done <- batchResult{duplicate: true}
		case inGroup[b.id]:
			parked = append(parked, b)
		default:
			inGroup[b.id] = true
			fresh = append(fresh, b)
		}
	}
	if len(fresh) == 0 {
		return
	}
	entries := make([]WALBatch, len(fresh))
	for i, b := range fresh {
		entries[i] = WALBatch{ID: b.id, Records: b.recs}
	}
	if err := t.wal.AppendGroup(entries); err != nil {
		if t.wal.Failed() {
			// The log could not be cut back to a committed boundary and
			// is refusing appends; a successful flush subsumes it and
			// recreates it fresh.
			t.flush(m)
		}
		for _, b := range fresh {
			b.done <- batchResult{err: err}
		}
		for _, b := range parked {
			b.done <- batchResult{err: err}
		}
		return
	}
	t.groupFsyncs.Add(1)
	m.groupFsyncs.Inc()
	m.groupBatches.Observe(uint64(len(fresh)))
	m.walAppends.Add(uint64(len(fresh)))
	m.walBytes.Set(uint64(t.wal.Size()))
	committed := time.Now()
	for _, b := range fresh {
		applied := t.applyCanonical(b.recs)
		t.rememberApplied(b.id)
		t.batches.Add(1)
		m.batches.Inc()
		m.records.Add(uint64(applied))
		if b.quarantined > 0 {
			m.quarantined.Add(uint64(b.quarantined))
		}
		if !b.enqueuedAt.IsZero() {
			m.commitWait.Observe(uint64(committed.Sub(b.enqueuedAt)))
		}
		b.done <- batchResult{applied: applied, quarantined: b.quarantined}
	}
	for _, b := range parked {
		// Its twin is durable now; the resend contract answers duplicate.
		t.dupBatches.Add(1)
		m.dupBatches.Inc()
		b.done <- batchResult{duplicate: true}
	}
}

// maybeFlush flushes the memtable when either threshold trips: WAL size
// (bounds replay time) or memtable size (bounds flush size and memory).
func (t *tenant) maybeFlush(m *metrics) {
	if t.wal.Size() >= t.walMaxBytes || t.mem.Load().Bytes() >= uint64(t.memMaxBytes) {
		t.flush(m)
	}
	m.memtableBytes.Set(t.mem.Load().Bytes())
}

// flush persists the memtable as a new immutable segment, installs a
// manifest carrying the current applied-ID set, swaps in a fresh memtable,
// and truncates the WAL the segment subsumes. The segment file is durable
// before the manifest references it; the manifest is durable before the
// WAL resets — a crash between any two steps recovers exactly (orphan
// segment discarded + full replay, or manifest + deduped replay).
func (t *tenant) flush(m *metrics) {
	mem := t.mem.Load()
	recs := mem.Snapshot()
	t.appliedMu.RLock()
	ids := append([]string(nil), t.order...)
	t.appliedMu.RUnlock()

	ss := t.segs
	if len(recs) > 0 {
		seg, err := writeSegment(t.dir, t.digest, ss.allocSeq(), recs)
		if err != nil {
			// Not fatal: the WAL still holds everything.
			m.logf("tenant %s: segment flush failed: %v", t.name, err)
			return
		}
		fresh := profile.NewStore(0)
		fresh.Observe(t.reg)
		ss.mu.Lock()
		prevSegs, prevIDs := ss.segs, ss.manifestIDs
		ss.segs = append(append([]*Segment(nil), ss.segs...), seg)
		ss.manifestIDs = ids
		err = writeManifest(ss.dir, ss.digest, ss.manifestLocked())
		if err != nil {
			ss.segs, ss.manifestIDs = prevSegs, prevIDs
		} else {
			// Swap inside the lock: a query must never observe the new
			// segment together with the memtable it came from.
			t.mem.Store(fresh)
		}
		ss.mu.Unlock()
		if err != nil {
			os.Remove(seg.Path)
			m.logf("tenant %s: manifest write failed: %v", t.name, err)
			return
		}
	} else {
		// Nothing interned since the last flush (empty tenant, or every
		// record quarantined) — refresh the manifest's applied set so the
		// WAL reset below stays replay-exact.
		ss.mu.Lock()
		prevIDs := ss.manifestIDs
		ss.manifestIDs = ids
		err := writeManifest(ss.dir, ss.digest, ss.manifestLocked())
		if err != nil {
			ss.manifestIDs = prevIDs
		}
		ss.mu.Unlock()
		if err != nil {
			m.logf("tenant %s: manifest write failed: %v", t.name, err)
			return
		}
	}
	if err := t.wal.Reset(); err != nil {
		m.logf("tenant %s: wal reset failed: %v", t.name, err)
		return
	}
	t.snapshots.Add(1)
	m.snapshots.Inc()
	m.walBytes.Set(uint64(t.wal.Size()))
	m.segments.Set(uint64(t.segs.count()))
	m.memtableBytes.Set(t.mem.Load().Bytes())
	t.kickCompact()
}

// health snapshots the tenant's counters.
func (t *tenant) health() TenantHealth {
	return TenantHealth{
		Name:                t.name,
		Digest:              t.digest.String(),
		Epoch:               t.epoch,
		Records:             t.records(),
		Unique:              t.uniqueContexts(),
		Batches:             t.batches.Load(),
		DupBatches:          t.dupBatches.Load(),
		Shed:                t.shed.Load(),
		QueueLen:            len(t.queue),
		QueueCap:            cap(t.queue),
		WALBytes:            t.wal.Size(),
		Snapshots:           t.snapshots.Load(),
		Replayed:            t.replayed.Load(),
		TruncatedTails:      t.truncatedTails.Load(),
		Segments:            t.segs.count(),
		MemtableBytes:       t.mem.Load().Bytes(),
		Compactions:         t.compactions.Load(),
		Orphans:             t.orphans.Load(),
		GroupFsyncs:         t.groupFsyncs.Load(),
		QuarantinedCorrupt:  t.qCorrupt.Load(),
		QuarantinedNoEdge:   t.qNoEdge.Load(),
		QuarantinedResidual: t.qResidual.Load(),
		QuarantinedMangled:  t.qMangled.Load(),
	}
}
