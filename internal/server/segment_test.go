package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deltapath"
	"deltapath/internal/analysisio"
	"deltapath/internal/encoding"
	"deltapath/internal/profile"
)

func sortedRecords(recs []profile.Record) []profile.Record {
	out := append([]profile.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return string(out[i].Key) < string(out[j].Key) })
	return out
}

// TestSegmentRoundTrip: write → open → iterate reproduces every pair, and
// a segment that lost its tail (the completion footer) is refused.
func TestSegmentRoundTrip(t *testing.T) {
	fx := loadFixture(t)
	dir := t.TempDir()
	recs := sortedRecords([]profile.Record{
		{Key: fx.records[0], Count: 7},
		{Key: fx.records[1%len(fx.records)], Count: 3},
	})
	// Dedup in case the fixture repeats a record.
	uniq := recs[:1]
	for _, r := range recs[1:] {
		if !bytes.Equal(r.Key, uniq[len(uniq)-1].Key) {
			uniq = append(uniq, r)
		}
	}
	seg, err := writeSegment(dir, fx.digest, 5, uniq)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Seq != 5 || seg.Pairs != uint64(len(uniq)) {
		t.Fatalf("segment header %+v, want seq 5 pairs %d", seg, len(uniq))
	}
	opened, err := OpenSegment(seg.Path, fx.digest)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Pairs != seg.Pairs || opened.Total != seg.Total {
		t.Fatalf("reopened %+v != written %+v", opened, seg)
	}
	it, err := opened.iter(fx.digest)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	for i := 0; ; i++ {
		key, count, err := it.next()
		if err == io.EOF {
			if i != len(uniq) {
				t.Fatalf("iterated %d pairs, want %d", i, len(uniq))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key, uniq[i].Key) || count != uniq[i].Count {
			t.Fatalf("pair %d = (%x, %d), want (%x, %d)", i, key, count, uniq[i].Key, uniq[i].Count)
		}
	}

	// Chop the footer off: the file must be refused as partial.
	data, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg.Path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(seg.Path, fx.digest); err == nil {
		t.Fatal("OpenSegment accepted a truncated segment")
	}
}

// TestManifestRoundTrip: the manifest survives a write/read cycle and a
// wrong digest is refused.
func TestManifestRoundTrip(t *testing.T) {
	fx := loadFixture(t)
	dir := t.TempDir()
	in := &manifest{NextSeq: 9, Segments: []uint64{2, 5, 7}, AppliedIDs: []string{"a", "bb"}}
	if err := writeManifest(dir, fx.digest, in); err != nil {
		t.Fatal(err)
	}
	out, ok, err := readManifest(dir, fx.digest)
	if err != nil || !ok {
		t.Fatalf("readManifest: ok=%v err=%v", ok, err)
	}
	if out.NextSeq != in.NextSeq || fmt.Sprint(out.Segments) != fmt.Sprint(in.Segments) ||
		fmt.Sprint(out.AppliedIDs) != fmt.Sprint(in.AppliedIDs) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	var other analysisio.GraphDigest // zero digest != a real analysis digest
	if _, _, err := readManifest(dir, other); err == nil {
		t.Fatal("readManifest accepted a wrong digest")
	}
}

// TestMergeIterSumsCounts: overlapping sources merge into one ascending
// stream with per-key count sums.
func TestMergeIterSumsCounts(t *testing.T) {
	mk := func(pairs ...string) pairIter {
		var recs []profile.Record
		for _, p := range pairs {
			key, n, _ := strings.Cut(p, "=")
			var c uint64
			fmt.Sscanf(n, "%d", &c)
			recs = append(recs, profile.Record{Key: []byte(key), Count: c})
		}
		return &memPairs{recs: recs}
	}
	mi, err := newMergeIter([]pairIter{
		mk("a=1", "c=2", "d=5"),
		mk("a=10", "b=4"),
		mk("d=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mi.close()
	want := []string{"a=11", "b=4", "c=2", "d=6"}
	for i := 0; ; i++ {
		key, count, err := mi.next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("merged %d keys, want %d", i, len(want))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%s=%d", key, count); got != want[i] {
			t.Fatalf("merge[%d] = %s, want %s", i, got, want[i])
		}
	}
}

// TestGroupCommitCoalesces: batches queued while no fsync is running ride
// one group — one WAL fsync commits all of them — while NoGroupCommit
// restores one fsync per batch.
func TestGroupCommitCoalesces(t *testing.T) {
	fx := loadFixture(t)
	for _, tc := range []struct {
		name       string
		noGroup    bool
		wantFsyncs uint64
	}{
		{"grouped", false, 1},
		{"per-batch", true, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, t.TempDir(), Config{QueueDepth: 16, NoGroupCommit: tc.noGroup})
			bundle, err := analysisio.Load(bytes.NewReader(fx.dpa))
			if err != nil {
				t.Fatal(err)
			}
			tn, err := newTenant("app", bundle, filepath.Join(s.cfg.DataDir, "app"), s.cfg, s.reg)
			if err != nil {
				t.Fatal(err)
			}
			// Queue everything BEFORE the worker starts: the first receive
			// takes one batch and the fill loop drains the other nine, so
			// the grouped run commits all ten in exactly one fsync.
			const n = 10
			dones := make([]chan batchResult, n)
			for i := 0; i < n; i++ {
				dones[i] = make(chan batchResult, 1)
				b := &batch{id: fmt.Sprintf("b-%d", i),
					recs: []profile.Record{{Key: fx.records[0], Count: 1}}, done: dones[i]}
				if ok, _ := tn.enqueue(b); !ok {
					t.Fatalf("enqueue %d refused", i)
				}
			}
			tn.wg.Add(1)
			go tn.run(s.m)
			for i, done := range dones {
				res := <-done
				if res.err != nil || res.duplicate {
					t.Fatalf("batch %d: err=%v duplicate=%v", i, res.err, res.duplicate)
				}
			}
			if got := tn.groupFsyncs.Load(); got != tc.wantFsyncs {
				t.Fatalf("group fsyncs = %d, want %d", got, tc.wantFsyncs)
			}
			if got := tn.records(); got != n {
				t.Fatalf("records = %d, want %d", got, n)
			}
			tn.beginDrain(context.Background())
			tn.wg.Wait()
		})
	}
}

// TestGroupCommitInGroupDuplicate: a batch whose ID repeats inside one
// commit group is acknowledged as a duplicate only after its twin's fsync,
// and its records are counted exactly once.
func TestGroupCommitInGroupDuplicate(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: 8})
	bundle, err := analysisio.Load(bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newTenant("app", bundle, filepath.Join(s.cfg.DataDir, "app"), s.cfg, s.reg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string) (*batch, chan batchResult) {
		done := make(chan batchResult, 1)
		return &batch{id: id, recs: []profile.Record{{Key: fx.records[0], Count: 3}}, done: done}, done
	}
	b1, d1 := mk("same")
	b2, d2 := mk("same")
	b3, d3 := mk("other")
	for _, b := range []*batch{b1, b2, b3} {
		if ok, _ := tn.enqueue(b); !ok {
			t.Fatal("enqueue refused")
		}
	}
	tn.wg.Add(1)
	go tn.run(s.m)
	if res := <-d1; res.err != nil || res.duplicate {
		t.Fatalf("first occurrence: %+v", res)
	}
	if res := <-d2; res.err != nil || !res.duplicate {
		t.Fatalf("in-group resend not marked duplicate: %+v", res)
	}
	if res := <-d3; res.err != nil || res.duplicate {
		t.Fatalf("distinct batch: %+v", res)
	}
	if got := tn.records(); got != 6 {
		t.Fatalf("records = %d, want 6 (duplicate must not double-count)", got)
	}
	if got := tn.dupBatches.Load(); got != 1 {
		t.Fatalf("dup batches = %d, want 1", got)
	}
	tn.beginDrain(context.Background())
	tn.wg.Wait()
}

// TestSegmentRecoveryRoundTrip: a tenant that flushed several segments
// restarts with identical contents; orphan segment files and temp files
// planted in its directory (a crash mid-flush or mid-compaction) are
// discarded, not double-counted.
func TestSegmentRecoveryRoundTrip(t *testing.T) {
	fx := loadFixture(t)
	dataDir := t.TempDir()
	// MemtableMaxBytes=1 flushes after every batch → one segment per
	// batch; CompactMinSegments is high so compaction cannot collapse
	// them mid-test.
	cfg := Config{QueueDepth: 8, MemtableMaxBytes: 1, CompactMinSegments: 100}

	open := func() (*Server, *httptest.Server) {
		s := newTestServer(t, dataDir, cfg)
		if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	s, ts := open()
	const batches = 5
	for i := 0; i < batches; i++ {
		rec := fx.records[i%len(fx.records)]
		resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, [][]byte{rec}, uint64(i+1)), fmt.Sprintf("rt-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, resp.StatusCode)
		}
	}
	before := healthz(t, ts.URL).Tenants[0]
	if before.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", before.Segments)
	}
	topBefore := getJSON[TopResponse](t, ts.URL+"/top?tenant=app&n=50")
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Plant a fake partially-written segment and a temp file: recovery
	// must discard both (neither is in the manifest).
	tdir := filepath.Join(dataDir, "app")
	orphan := filepath.Join(tdir, "seg-90000000.dps")
	tmp := filepath.Join(tdir, "seg-90000001.dps.tmp")
	if err := os.WriteFile(orphan, []byte("DPS2\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := open()
	defer ts2.Close()
	defer s2.Close(context.Background())
	after := healthz(t, ts2.URL).Tenants[0]
	if after.Records != before.Records || after.UniqueKeys != before.UniqueKeys {
		t.Fatalf("recovered records/unique %d/%d, want %d/%d",
			after.Records, after.UniqueKeys, before.Records, before.UniqueKeys)
	}
	if after.Orphans != 2 {
		t.Fatalf("orphans discarded = %d, want 2", after.Orphans)
	}
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived recovery", p)
		}
	}
	topAfter := getJSON[TopResponse](t, ts2.URL+"/top?tenant=app&n=50")
	if fmt.Sprint(topAfter.Rows) != fmt.Sprint(topBefore.Rows) {
		t.Fatalf("/top rows changed across restart:\n before %v\n after  %v", topBefore.Rows, topAfter.Rows)
	}
}

// TestTenantRecoversTornWALHeader: a SIGKILL landing between a
// post-flush WAL Reset's truncate and the fresh header reaching disk
// leaves a short, headerless wal.log. Everything that WAL held is
// already durable in the manifest — Reset only runs after the flush
// installs it — so the restarted tenant must treat the stub as an empty
// WAL, recreate the header, and keep serving, not refuse to start.
func TestTenantRecoversTornWALHeader(t *testing.T) {
	fx := loadFixture(t)
	for _, cut := range []int64{0, 3} { // empty file, and mid-magic
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dataDir := t.TempDir()
			cfg := Config{QueueDepth: 8, MemtableMaxBytes: 1, CompactMinSegments: 100}
			open := func() (*Server, *httptest.Server) {
				s := newTestServer(t, dataDir, cfg)
				if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
					t.Fatal(err)
				}
				return s, httptest.NewServer(s.Handler())
			}
			s, ts := open()
			resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, [][]byte{fx.records[0]}, 7), "torn-1")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %d", resp.StatusCode)
			}
			before := healthz(t, ts.URL).Tenants[0]
			ts.Close()
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dataDir, "app", "wal.log"), cut); err != nil {
				t.Fatal(err)
			}

			s2, ts2 := open()
			defer ts2.Close()
			defer s2.Close(context.Background())
			after := healthz(t, ts2.URL).Tenants[0]
			if after.Records != before.Records {
				t.Fatalf("recovered records = %d, want %d", after.Records, before.Records)
			}
			// The recreated WAL must accept and recover new appends.
			resp, _ = ingest(t, ts2.URL, dppBatch(t, fx.digest, [][]byte{fx.records[1]}, 3), "torn-2")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-recovery ingest: %d", resp.StatusCode)
			}
			if got := healthz(t, ts2.URL).Tenants[0].Records; got != before.Records+3 {
				t.Fatalf("records after post-recovery ingest = %d, want %d", got, before.Records+3)
			}
		})
	}
}

// TestTenantRefusesLegacySnapshot: a tenant directory still on the
// pre-segment layout (a DPS1 snapshot.dps and no MANIFEST) is refused with
// an error naming the file. Nothing reads that format any more, and
// starting empty would silently drop the records it holds.
func TestTenantRefusesLegacySnapshot(t *testing.T) {
	fx := loadFixture(t)
	dataDir := t.TempDir()
	legacy := filepath.Join(dataDir, "app", "snapshot.dps")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	// A valid, empty DPS1 snapshot: magic, digest, no applied IDs, no
	// records.
	var dps bytes.Buffer
	dps.WriteString("DPS1\n")
	if err := profile.WriteDigest(&dps, fx.digest); err != nil {
		t.Fatal(err)
	}
	dps.Write([]byte{0, 0})
	if err := os.WriteFile(legacy, dps.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, dataDir, Config{QueueDepth: 8})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("AddTenant = %v, want a refusal naming %s", err, legacy)
	}
}

// TestCompactionMergesSegments: once the live list reaches the threshold
// the background compactor folds it into one segment without changing any
// observable count, and the compacted store recovers identically.
func TestCompactionMergesSegments(t *testing.T) {
	fx := loadFixture(t)
	dataDir := t.TempDir()
	cfg := Config{QueueDepth: 8, MemtableMaxBytes: 1, CompactMinSegments: 3}
	s := newTestServer(t, dataDir, cfg)
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < 6; i++ {
		rec := fx.records[i%len(fx.records)]
		resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, [][]byte{rec}, 2), fmt.Sprintf("cp-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var h TenantHealth
	for {
		h = healthz(t, ts.URL).Tenants[0]
		if h.Compactions >= 1 && h.Segments < 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never ran: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Records != 12 {
		t.Fatalf("records after compaction = %d, want 12", h.Records)
	}
	top := getJSON[TopResponse](t, ts.URL+"/top?tenant=app&n=50")
	var sum uint64
	for _, row := range top.Rows {
		sum += row.Count
	}
	if sum != 12 {
		t.Fatalf("/top counts sum to %d after compaction, want 12", sum)
	}
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, dataDir, cfg)
	h2, err := s2.AddTenant("app", bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	if h2.Records != 12 || h2.UniqueKeys != h.UniqueKeys {
		t.Fatalf("post-compaction recovery %d/%d, want 12/%d", h2.Records, h2.UniqueKeys, h.UniqueKeys)
	}
}

func getJSON[T any](t testing.TB, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// queryRows fetches /query and parses its NDJSON stream.
func queryRows(t testing.TB, url string) []QueryRow {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	var rows []QueryRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row QueryRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Context == "" {
			t.Fatalf("error row in stream: %s", sc.Text())
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestQueryMatchesTop: /query?top=K streams exactly the rows /top
// materializes — same contexts, counts, and order — over a store spread
// across segments and memtable; the full stream and the class filter are
// consistent with it.
func TestQueryMatchesTop(t *testing.T) {
	fx := loadFixture(t)
	// Small memtable: most of the store lives in segments, with the tail
	// of the ingest typically still in the memtable.
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: 8, MemtableMaxBytes: 512, CompactMinSegments: 100})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close(context.Background())
	for i := 0; i < 4; i++ {
		resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, fx.records, uint64(i+1)), fmt.Sprintf("qm-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, resp.StatusCode)
		}
	}
	h := healthz(t, ts.URL).Tenants[0]
	if h.Segments == 0 {
		t.Fatalf("store never flushed a segment: %+v", h)
	}

	full := queryRows(t, ts.URL+"/query?tenant=app")
	if uint64(len(full)) != h.UniqueKeys {
		t.Fatalf("full stream has %d rows, health says %d unique", len(full), h.UniqueKeys)
	}
	var sum uint64
	seen := map[string]uint64{}
	for _, row := range full {
		sum += row.Count
		seen[row.Context] += row.Count
	}
	if sum != h.Records {
		t.Fatalf("full stream sums to %d, health says %d records", sum, h.Records)
	}

	for _, k := range []int{1, 3, 1000} {
		top := getJSON[TopResponse](t, fmt.Sprintf("%s/top?tenant=app&n=%d", ts.URL, k))
		qt := queryRows(t, fmt.Sprintf("%s/query?tenant=app&top=%d", ts.URL, k))
		if len(qt) != len(top.Rows) {
			t.Fatalf("top=%d: /query %d rows, /top %d rows", k, len(qt), len(top.Rows))
		}
		for i := range qt {
			if qt[i].Context != top.Rows[i].Context || qt[i].Count != top.Rows[i].Count {
				t.Fatalf("top=%d row %d: /query (%s, %d) != /top (%s, %d)",
					k, i, qt[i].Context, qt[i].Count, top.Rows[i].Context, top.Rows[i].Count)
			}
		}
	}

	filtered := queryRows(t, ts.URL+"/query?tenant=app&class=Even")
	wantFiltered := 0
	for ctx := range seen {
		if matchesClass(ctx, "Even") {
			wantFiltered++
		}
	}
	if len(filtered) != wantFiltered || wantFiltered == 0 {
		t.Fatalf("class filter returned %d rows, want %d (>0)", len(filtered), wantFiltered)
	}
	for _, row := range filtered {
		if !matchesClass(row.Context, "Even") {
			t.Fatalf("class filter leaked context %q", row.Context)
		}
	}
}

// diamondBundle analyzes a K-layer diamond program (each layer has two
// call sites into the next, so the sink has 2^K calling contexts) and
// fabricates one record per context by enumerating the sink's dense
// encoding IDs — the paper's bijection between [0, paths) and contexts.
func diamondBundle(t testing.TB, layers int) (dpa []byte, bundle *analysisio.Bundle, records [][]byte) {
	t.Helper()
	var src strings.Builder
	fmt.Fprintf(&src, "entry D.l0\nclass D {\n")
	for i := 0; i < layers; i++ {
		fmt.Fprintf(&src, "  method l%d { call D.l%d; call D.l%d }\n", i, i+1, i+1)
	}
	fmt.Fprintf(&src, "  method l%d { emit hit }\n}\n", layers)
	prog, err := deltapath.ParseProgram(src.String())
	if err != nil {
		t.Fatal(err)
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.SaveAnalysis(&buf); err != nil {
		t.Fatal(err)
	}
	bundle, err = analysisio.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := bundle.Graph.Entry()
	if !ok {
		t.Fatal("diamond program has no entry")
	}
	sink := bundle.Graph.Lookup(fmt.Sprintf("D.l%d", layers))
	dec := encoding.Compile(bundle.Spec)
	n := 1 << layers
	records = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		st := &encoding.State{ID: uint64(i), Start: entry}
		rec := encoding.MarshalContext(st, sink)
		if _, err := dec.DecodeNames(st, sink); err != nil {
			t.Fatalf("fabricated context %d does not decode: %v", i, err)
		}
		records = append(records, rec)
	}
	return buf.Bytes(), bundle, records
}

// TestQueryMemoryBounded: streaming /query over a store far larger than
// the memtable threshold must not buffer the store — peak added heap while
// serving a store 16× bigger stays within a constant factor of the small
// store's, instead of scaling with it.
func TestQueryMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile too slow for -short")
	}
	run := func(layers int) (peak uint64, pairs uint64) {
		dpa, bundle, records := diamondBundle(t, layers)
		s := newTestServer(t, t.TempDir(), Config{
			QueueDepth: 8, MemtableMaxBytes: 16 << 10, CompactMinSegments: 100,
			MaxBodyBytes: 256 << 20, MaxBatchRecords: 1 << 20,
		})
		if _, err := s.AddTenant("app", bytes.NewReader(dpa)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close(context.Background())
		const chunk = 256
		for i := 0; i < len(records); i += chunk {
			end := i + chunk
			if end > len(records) {
				end = len(records)
			}
			resp, ir := ingest(t, ts.URL, dppBatch(t, bundle.Digest, records[i:end], 1), fmt.Sprintf("mb-%d", i))
			if resp.StatusCode != http.StatusOK || ir.Quarantined != 0 {
				t.Fatalf("ingest chunk %d: status %d, quarantined %d", i, resp.StatusCode, ir.Quarantined)
			}
		}
		// The flush after the last acknowledged batch runs asynchronously
		// in the worker; give it a moment to land.
		var h TenantHealth
		for deadline := time.Now().Add(5 * time.Second); ; {
			h = healthz(t, ts.URL).Tenants[0]
			if h.Segments >= 2 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if h.UniqueKeys != uint64(len(records)) {
			t.Fatalf("store has %d unique keys, want %d", h.UniqueKeys, len(records))
		}
		if h.Segments < 2 {
			t.Fatalf("store not segmented (segments=%d) — memory bound untested", h.Segments)
		}

		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		var peakAlloc atomic.Uint64
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakAlloc.Load() {
					peakAlloc.Store(ms.HeapAlloc)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		resp, err := http.Get(ts.URL + "/query?tenant=app")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n == 0 {
			t.Fatalf("streaming query: copied %d bytes, err %v", n, err)
		}
		close(stop)
		<-sampled
		peak = peakAlloc.Load()
		if peak < base.HeapAlloc {
			peak = base.HeapAlloc
		}
		return peak - base.HeapAlloc, h.UniqueKeys
	}

	smallPeak, smallPairs := run(10) // 1024 contexts
	largePeak, largePairs := run(14) // 16384 contexts — 16× the store
	t.Logf("small store: %d pairs, peak added heap %d KiB", smallPairs, smallPeak>>10)
	t.Logf("large store: %d pairs, peak added heap %d KiB", largePairs, largePeak>>10)
	// The stream must not materialize the store: allow a generous constant
	// (GC timing, HTTP buffers) but reject anything resembling O(store)
	// growth — a materialized large store would add tens of MiB.
	if largePeak > 4*smallPeak+8<<20 {
		t.Fatalf("peak added heap grew with store size: small %d KiB, large %d KiB",
			smallPeak>>10, largePeak>>10)
	}
}
