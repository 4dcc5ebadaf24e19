// GET /query — the bulk read path, and the top-K read /top shares with it.
//
//	tenant=NAME   required
//	top=K         keep only the K hottest rows, aggregated by display
//	              context exactly as /top reports them (count descending,
//	              context ascending). Distinct records can render to the
//	              same display context (recursion pieces collapse), so
//	              the rows sum counts by the tenant's intern-table context
//	              id (intern.go), not by record.
//	class=C       keep only contexts with a frame in class C
//
// Without top= the rows stream one line per merged record in merge
// (record-byte) order — segments k-way-merged with the memtable — flushed
// incrementally: server memory is O(segments), so a client can consume a
// store much larger than either side's memory. The stream takes each
// record's string from the intern table, decodes the records the table
// does not hold, and inserts nothing.
//
// top=K and /top need no key order, so they skip the merge: each source
// (every segment, then the memtable, unsorted) is summed in whatever order
// it yields into counts indexed by context id, and only the rows the
// answer returns are rendered — they already are, in the table. Keys the
// table does not hold (after a restart, or past its cap) are decoded and,
// while the table is under its cap, inserted, so the first top-K read
// after a restart refills it. Query memory is O(distinct contexts).
package server

import (
	"container/heap"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"deltapath/internal/encoding"
	"deltapath/internal/profile"
)

// chunkPairs is how many pairs a reader looks up per hold of the intern
// table's read lock.
const chunkPairs = 256

// QueryRow is one /query NDJSON line.
type QueryRow struct {
	Context string `json:"context"`
	Count   uint64 `json:"count"`
}

// queryHeap is a bounded min-heap of the K best rows seen so far. The
// root is the weakest row — smallest count, and among equal counts the
// byte-largest context — so pushing a better row and popping the root
// maintains exactly the K rows /top would report, and popping everything
// at the end yields them in reverse report order.
type queryHeap []QueryRow

func (h queryHeap) Len() int { return len(h) }
func (h queryHeap) Less(i, j int) bool {
	if h[i].Count != h[j].Count {
		return h[i].Count < h[j].Count
	}
	return h[i].Context > h[j].Context
}
func (h queryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *queryHeap) Push(x any)   { *h = append(*h, x.(QueryRow)) }
func (h *queryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// offer considers row for the K best.
func (h *queryHeap) offer(row QueryRow, k int) {
	if len(*h) < k {
		heap.Push(h, row)
	} else if rowBeats(row, (*h)[0]) {
		(*h)[0] = row
		heap.Fix(h, 0)
	}
}

// rows pops the heap empty into report order (count descending, context
// ascending — exactly profile.Report.Top's sort). An empty heap gives nil.
func (h *queryHeap) rows() []QueryRow {
	if len(*h) == 0 {
		return nil
	}
	out := make([]QueryRow, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(QueryRow)
	}
	return out
}

// rowBeats reports whether candidate outranks cur in report order (count
// descending, context ascending) — i.e. whether it deserves cur's heap
// slot.
func rowBeats(candidate, cur QueryRow) bool {
	if candidate.Count != cur.Count {
		return candidate.Count > cur.Count
	}
	return candidate.Context < cur.Context
}

// matchesClass reports whether any frame of a decoded context ("A.m > B.n")
// belongs to class c.
func matchesClass(ctx, c string) bool {
	for _, frame := range strings.Split(ctx, " > ") {
		if cls, _, ok := strings.Cut(frame, "."); ok && cls == c {
			return true
		}
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t := s.tenantByName(r.URL.Query().Get("tenant"))
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", r.URL.Query().Get("tenant"))
		return
	}
	topK := 0
	if v := r.URL.Query().Get("top"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
		topK = parsed
	}
	class := r.URL.Query().Get("class")

	ctx, cancel := mergeContexts(r.Context(), s.queryCtx)
	defer cancel()

	if topK == 0 {
		t.streamRows(ctx, w, class)
		return
	}
	res, err := t.topContexts(ctx, topK, class)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if err != nil {
		if ctx.Err() == nil {
			enc.Encode(map[string]string{"error": err.Error()})
		}
		return
	}
	for _, row := range res.Rows {
		if err := enc.Encode(row); err != nil {
			return
		}
	}
}

// streamRows writes the merged store as NDJSON rows, one per record, in
// chunks: each chunk takes its strings from the intern table under one
// hold of its read lock, decoding the records the table misses, and is
// then written and flushed.
func (t *tenant) streamRows(ctx context.Context, w http.ResponseWriter, class string) {
	mi, err := t.openMerge()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer mi.close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	tab := t.intern
	rows := make([]QueryRow, 0, chunkPairs)
	var frames []encoding.Frame
	for done := false; !done; {
		if ctx.Err() != nil {
			return // stream already started; just stop
		}
		rows = rows[:0]
		tab.mu.RLock()
		for len(rows) < chunkPairs {
			key, count, err := mi.next()
			if err == io.EOF {
				done = true
				break
			}
			row := QueryRow{Count: count}
			if err == nil {
				if kid, ok := tab.keys[string(key)]; ok {
					row.Context = tab.ctxs[tab.ctxOf[kid]]
				} else {
					row.Context, frames, err = t.decodeInto(frames, key)
				}
			}
			if err != nil {
				// canonicalize only passes records that decode, so a
				// failed decode is state corruption, not client error —
				// surface it.
				tab.mu.RUnlock()
				enc.Encode(map[string]string{"error": err.Error()})
				return
			}
			rows = append(rows, row)
		}
		tab.mu.RUnlock()
		for _, row := range rows {
			if class != "" && !matchesClass(row.Context, class) {
				continue
			}
			if err := enc.Encode(row); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// topContexts answers a top-K read: the k hottest display contexts, with
// class filtering when class is set, and the store's totals for /top (the
// caller sets Tenant). It sums each source's pairs by context id — see the
// package comment — and stops with ctx's error when ctx ends between
// chunks.
func (t *tenant) topContexts(ctx context.Context, k int, class string) (TopResponse, error) {
	segs, mem, err := t.openSources()
	if err != nil {
		return TopResponse{}, err
	}
	defer func() {
		for _, it := range segs {
			it.close()
		}
	}()
	a := &idSums{ctx: ctx, t: t, memo: map[string]internEntry{}, extra: map[string]uint64{}}
	for _, it := range segs {
		if err := a.addSegment(it); err != nil {
			return TopResponse{}, err
		}
	}
	if err := a.addMemtable(mem); err != nil {
		return TopResponse{}, err
	}

	res := TopResponse{Total: a.total, Records: a.records + uint64(len(a.memo))}
	t.intern.mu.RLock()
	ctxs := t.intern.ctxs // elements below len are never rewritten
	t.intern.mu.RUnlock()
	var best queryHeap
	for cid, n := range a.sums {
		if n == 0 {
			continue
		}
		res.Unique++
		if class == "" || matchesClass(ctxs[cid], class) {
			best.offer(QueryRow{Context: ctxs[cid], Count: n}, k)
		}
	}
	for c, n := range a.extra {
		res.Unique++
		if class == "" || matchesClass(c, class) {
			best.offer(QueryRow{Context: c, Count: n}, k)
		}
	}
	res.Rows = best.rows()
	return res, nil
}

// idSums is a top-K read's running aggregate: counts summed by context id,
// and the distinct keys seen. A key the intern table misses is decoded and
// offered to the table; one the table does not take (past the cap) is
// remembered in memo for the rest of the read, and its count goes to its
// context's id when the table holds that context, else to extra.
type idSums struct {
	ctx     context.Context
	t       *tenant
	sums    []uint64 // by context id
	seen    []uint64 // bitset by key id
	records uint64   // distinct keys with an id
	total   uint64
	misses  []internEntry // the current chunk's misses, with their counts
	memo    map[string]internEntry
	extra   map[string]uint64
	frames  []encoding.Frame
}

// add counts one pair: under key id kid when it has one, and under
// context id cid, or under ctx when the table holds no id for it.
func (a *idSums) add(kid, cid int32, ctx string, count uint64) {
	a.total += count
	if kid >= 0 {
		w, bit := int(kid>>6), uint64(1)<<(kid&63)
		if w >= len(a.seen) {
			a.seen = append(a.seen, make([]uint64, w+1-len(a.seen))...)
		}
		if a.seen[w]&bit == 0 {
			a.seen[w] |= bit
			a.records++
		}
	}
	if cid < 0 {
		a.extra[ctx] += count
		return
	}
	if int(cid) >= len(a.sums) {
		a.sums = append(a.sums, make([]uint64, int(cid)+1-len(a.sums))...)
	}
	a.sums[cid] += count
}

// addSegment sums one segment, a chunk of pairs per hold of the table's
// read lock.
func (a *idSums) addSegment(it pairIter) error {
	tab := a.t.intern
	for err := error(nil); err != io.EOF; {
		tab.mu.RLock()
		for n := 0; n < chunkPairs; n++ {
			var key []byte
			var count uint64
			if key, count, err = it.next(); err != nil {
				break
			}
			if kid, ok := tab.keys[string(key)]; ok {
				a.add(kid, tab.ctxOf[kid], "", count)
			} else {
				a.misses = append(a.misses, internEntry{key: string(key), count: count})
			}
		}
		tab.mu.RUnlock()
		if err != nil && err != io.EOF {
			return err
		}
		if rerr := a.resolve(); rerr != nil {
			return rerr
		}
	}
	return nil
}

// addMemtable sums the memtable in the order its shards yield it, looking
// up a chunk of its pairs per hold of the table's read lock.
func (a *idSums) addMemtable(mem *profile.Store) error {
	tab := a.t.intern
	chunk := make([]internEntry, 0, chunkPairs)
	lookup := func() {
		tab.mu.RLock()
		for _, e := range chunk {
			if kid, ok := tab.keys[e.key]; ok {
				a.add(kid, tab.ctxOf[kid], "", e.count)
			} else {
				a.misses = append(a.misses, e)
			}
		}
		tab.mu.RUnlock()
		chunk = chunk[:0]
	}
	mem.Range(func(key string, count uint64) {
		if chunk = append(chunk, internEntry{key: key, count: count}); len(chunk) == chunkPairs {
			lookup()
		}
	})
	lookup()
	return a.resolve()
}

// resolve settles the chunk's misses: a key already met in this read
// counts again through memo; the rest are decoded, offered to the table in
// one insert, and counted by the ids it reports. It returns ctx's error
// once ctx has ended.
func (a *idSums) resolve() error {
	fresh := a.misses[:0]
	for _, e := range a.misses {
		if m, ok := a.memo[e.key]; ok {
			a.add(-1, m.ctxID, m.ctx, e.count)
			continue
		}
		var err error
		if e.ctx, a.frames, err = a.t.decodeInto(a.frames, []byte(e.key)); err != nil {
			return err
		}
		fresh = append(fresh, e)
	}
	a.t.intern.insert(fresh)
	for _, e := range fresh {
		if e.keyID < 0 {
			a.memo[e.key] = e
		}
		a.add(e.keyID, e.ctxID, e.ctx, e.count)
	}
	a.misses = a.misses[:0]
	return a.ctx.Err()
}
