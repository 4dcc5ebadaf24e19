// The per-tenant intern table: every canonical record key the tenant has
// validated, mapped to its display context, rendered once.
//
// A tenant's analysis is fixed by its digest, so a record's display
// context never changes. Ingest (and WAL replay, which goes through the
// same canonicalize) fills the table as keys first validate; top-K reads
// and /top insert the keys they had to decode, so the first such read
// after a restart refills it. The table is bounded by internMaxBytes: past
// the cap nothing is inserted and the keys it does not hold are decoded on
// every read.
package server

import (
	"strings"
	"sync"

	"deltapath/internal/encoding"
)

// defaultInternMaxBytes bounds one tenant's intern table: the bytes of its
// keys plus those of its distinct rendered contexts. The whole table of
// perfbench's mpegaudio tenant, maps included, adds about 4 MiB of live
// heap.
const defaultInternMaxBytes = 32 << 20

// internMaxBytes is the cap in force; tests lower it.
var internMaxBytes = defaultInternMaxBytes

// internTable maps canonical record keys to display-context ids and holds
// each id's rendered context. Records that render to the same context
// share an id. Ingest handlers, WAL replay and readers use it
// concurrently: lookups take the read lock once per batch or chunk of
// pairs, and only inserts take the write lock. Ids are dense and never
// reassigned, and both slices only grow, so an element read under the lock
// stays valid after it is released.
type internTable struct {
	mu     sync.RWMutex
	keys   map[string]int32 // canonical key → key id
	ctxOf  []int32          // key id → context id
	ctxIDs map[string]int32 // rendered context → context id
	ctxs   []string         // context id → rendered context
	bytes  int              // key and context bytes held
	full   bool             // an insert was refused: the table takes no more
}

func newInternTable() *internTable {
	return &internTable{keys: map[string]int32{}, ctxIDs: map[string]int32{}}
}

// internEntry is one key to insert with its rendered context, and for a
// reader the count of the pair it came with. insert sets the ids: keyID is
// -1 when the table did not take the key, and ctxID is -1 when it holds no
// id for the context either.
type internEntry struct {
	key, ctx     string
	keyID, ctxID int32
	count        uint64
}

// insert adds the entries the table does not hold yet, under one write
// lock, until the first one that would pass the cap; from then on it adds
// nothing. It reports each entry's ids, so a reader can count keys the
// table already held, or still holds the context of.
func (tab *internTable) insert(entries []internEntry) {
	if len(entries) == 0 {
		return
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for i := range entries {
		e := &entries[i]
		if kid, ok := tab.keys[e.key]; ok {
			e.keyID, e.ctxID = kid, tab.ctxOf[kid]
			continue
		}
		e.keyID, e.ctxID = -1, -1
		cid, known := tab.ctxIDs[e.ctx]
		if known {
			e.ctxID = cid
		}
		add := len(e.key)
		if !known {
			add += len(e.ctx)
		}
		if tab.full || tab.bytes+add > internMaxBytes {
			tab.full = true
			continue
		}
		if !known {
			cid = int32(len(tab.ctxs))
			tab.ctxs = append(tab.ctxs, e.ctx)
			tab.ctxIDs[e.ctx] = cid
		}
		kid := int32(len(tab.ctxOf))
		tab.ctxOf = append(tab.ctxOf, cid)
		tab.keys[e.key] = kid
		tab.bytes += add
		e.keyID, e.ctxID = kid, cid
	}
}

// render joins a decoded context's frames into the display string every
// endpoint serves: node names separated by " > ", a gap shown as "...".
// Every string the server returns for a record comes from here.
func (t *tenant) render(frames []encoding.Frame) string {
	n := 0
	for i, f := range frames {
		if i > 0 {
			n += len(" > ")
		}
		if f.Gap {
			n += len("...")
		} else {
			n += len(t.graph.Name(f.Node))
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, f := range frames {
		if i > 0 {
			b.WriteString(" > ")
		}
		if f.Gap {
			b.WriteString("...")
		} else {
			b.WriteString(t.graph.Name(f.Node))
		}
	}
	return b.String()
}

// decodeInto renders one context record through the compiled decoder,
// decoding into frames' storage, which it returns for reuse.
func (t *tenant) decodeInto(frames []encoding.Frame, rec []byte) (string, []encoding.Frame, error) {
	st, end, err := encoding.UnmarshalContext(rec)
	if err != nil {
		return "", frames, err
	}
	frames, err = t.dec.DecodeInto(frames, st, end)
	if err != nil {
		return "", frames, err
	}
	return t.render(frames), frames, nil
}
