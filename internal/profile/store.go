// Package profile is the collection/aggregation half of the DeltaPath
// deployment story: the paper makes a calling context a small integer so
// that *capturing* one is constant-time — this package makes *aggregating*
// millions of captured contexts nearly free as well.
//
// Three pieces:
//
//   - Store: a sharded context-interning store. Many concurrent sessions
//     intern their marshalled context records (encoding.MarshalContext
//     bytes) into one store; each record is deduplicated to an interned ID
//     plus a hit count. Shards are selected by a hash of the record, so
//     writers contend only when they hash to the same shard.
//
//   - Writer/Reader: the streaming binary ".dpp" profile format — a
//     magic/version header, the graph digest of the analysis the records
//     were captured under (reused from analysisio's DPA2 format), then a
//     varint-encoded record table with counts. Both sides stream: the
//     writer never buffers the profile, the reader yields one record at a
//     time.
//
//   - Decode: parallel batch decoding of a profile into a deterministic,
//     sorted hot-context report, fanning records out over a worker pool
//     with per-worker memoization.
package profile

import (
	"sort"
	"sync"
	"sync/atomic"

	"deltapath/internal/obs"
)

// DefaultShards is the shard count NewStore uses when given n <= 0. 64
// shards keep the per-shard collision probability low for up to a few tens
// of concurrent writers while costing only ~4 KiB of fixed overhead.
const DefaultShards = 64

// Store is a sharded context-interning store: a concurrent map from
// marshalled context record to interned ID and hit count. The zero value is
// not usable; call NewStore.
//
// All methods are safe for concurrent use. The aggregate counters (Total,
// Unique) are maintained with atomics so readers never take a shard lock.
type Store struct {
	shards []shard
	mask   uint64

	total  atomic.Uint64 // every successful Intern/AddCount sample
	unique atomic.Uint64 // distinct records interned
	nextID atomic.Uint64 // next interned ID
	bytes  atomic.Uint64 // approximate resident size of interned records

	// Observability hooks (nil = no-op): intern rate, and how often a
	// writer found its shard lock held — the signal that the shard count
	// is too low for the writer count.
	interns    *obs.Counter
	contention *obs.Counter
}

// Observe resolves the store's metric hooks from reg (nil disables).
func (s *Store) Observe(reg *obs.Registry) {
	s.interns = reg.Counter(obs.MetricProfileInterns)
	s.contention = reg.Counter(obs.MetricProfileShardContention)
}

// shard is one mutex-guarded slice of the record space. The padding keeps
// neighbouring shards on distinct cache lines, so uncontended locks on
// different shards do not false-share.
type shard struct {
	mu sync.Mutex
	m  map[string]*entry
	_  [64 - 16]byte
}

type entry struct {
	id    uint64
	count uint64
}

// NewStore returns a store with the given shard count, rounded up to the
// next power of two. n <= 0 selects DefaultShards.
func NewStore(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry)
	}
	return s
}

// NumShards reports the (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// fnv1a hashes a record for shard selection (FNV-1a, the same family the
// graph digest uses; inlined here to keep the hot path allocation-free).
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// Intern records one hit of record, deduplicating it against everything the
// store has seen, and returns the record's interned ID. IDs are dense and
// stable for the lifetime of the store, but their assignment order depends
// on goroutine interleaving — persist records and counts, never IDs.
func (s *Store) Intern(record []byte) uint64 {
	return s.AddCount(record, 1)
}

// AddCount is Intern with a weight: it adds n hits in one shard visit. Used
// when merging pre-aggregated profiles. n == 0 records nothing and returns
// the record's ID if it is already interned (or interns it with count 0).
func (s *Store) AddCount(record []byte, n uint64) uint64 {
	s.interns.Inc()
	sh := &s.shards[fnv1a(record)&s.mask]
	if !sh.mu.TryLock() {
		// Another writer holds this shard: count the collision, then block
		// normally. TryLock-then-Lock costs one extra CAS only on the
		// already-slow contended path.
		s.contention.Inc()
		sh.mu.Lock()
	}
	e := sh.m[string(record)] // no-alloc map lookup
	if e == nil {
		e = &entry{id: s.nextID.Add(1) - 1}
		sh.m[string(record)] = e
		s.unique.Add(1)
		s.bytes.Add(uint64(len(record)) + entryOverheadBytes)
	}
	e.count += n
	sh.mu.Unlock()
	s.total.Add(n)
	return e.id
}

// entryOverheadBytes approximates the per-record bookkeeping cost beyond
// the key bytes themselves: the entry struct, its pointer, and the map
// cell. The absolute number only needs to be stable — Bytes feeds a flush
// threshold, not an accountant.
const entryOverheadBytes = 48

// Total reports the aggregate hit count across all records.
func (s *Store) Total() uint64 { return s.total.Load() }

// Bytes reports the approximate resident size of the store: key bytes plus
// a fixed per-record overhead. Counts are monotone (records are never
// evicted), so Bytes is a cheap memtable-flush trigger.
func (s *Store) Bytes() uint64 { return s.bytes.Load() }

// Unique reports the number of distinct records interned.
func (s *Store) Unique() uint64 { return s.unique.Load() }

// Record is one interned record as returned by Snapshot.
type Record struct {
	// ID is the interned ID (stable within this store only).
	ID uint64
	// Key is the marshalled context record.
	Key []byte
	// Count is the hit count at snapshot time.
	Count uint64
}

// Range calls fn with every interned record and its count, in no
// particular order. It visits one shard at a time under that shard's lock,
// so concurrent writers are delayed only briefly, and like Snapshot it may
// or may not see counts interned while it runs. The key is the store's own
// immutable string: fn may keep it without copying, but must not call
// back into the store.
func (s *Store) Range(fn func(key string, count uint64)) {
	for i := range s.shards {
		sh := &s.shards[i]
		// Range reads shards off the hot path, as Snapshot does.
		//dplint:coldpath
		sh.mu.Lock()
		for k, e := range sh.m {
			fn(k, e.count)
		}
		sh.mu.Unlock()
	}
}

// Snapshot returns every interned record with its count, sorted by record
// bytes — a deterministic order independent of interning interleaving.
// Snapshot locks one shard at a time, so concurrent writers are delayed
// only briefly; counts interned while the snapshot is in progress may or
// may not be included, exactly like any other racing reader.
func (s *Store) Snapshot() []Record {
	out := make([]Record, 0, s.unique.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		// Snapshot drains shards off the hot path; the TryLock contention
		// counter tracks writer-vs-writer races, not readers.
		//dplint:coldpath
		sh.mu.Lock()
		for k, e := range sh.m {
			out = append(out, Record{ID: e.id, Key: []byte(k), Count: e.count})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].Key) < string(out[j].Key)
	})
	return out
}
