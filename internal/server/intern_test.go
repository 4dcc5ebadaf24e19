package server

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deltapath/internal/encoding"
	"deltapath/internal/profile"
)

// The oracle: the server's read paths as they were before the intern
// table. Every record of the merged store is decoded to names and joined;
// /query aggregates the joined strings, and /top writes the merged store
// to an in-memory .dpp, reads it back and decodes it on
// profile.DecodeContext's worker pool.

// oracleDecode renders a record as the server did before render existed:
// the compiled decoder's names joined with " > ".
func oracleDecode(tn *tenant, rec []byte) (string, error) {
	st, end, err := encoding.UnmarshalContext(rec)
	if err != nil {
		return "", err
	}
	names, err := tn.dec.DecodeNames(st, end)
	if err != nil {
		return "", err
	}
	return strings.Join(names, " > "), nil
}

// oracleRows is /query over the k-way merge: with topK > 0 the K hottest
// decoded contexts, otherwise one row per merged record in merge order.
func oracleRows(t testing.TB, tn *tenant, topK int, class string) []QueryRow {
	t.Helper()
	mi, err := tn.openMerge()
	if err != nil {
		t.Fatal(err)
	}
	defer mi.close()
	agg := map[string]uint64{}
	var rows []QueryRow
	for {
		key, count, err := mi.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ctxStr, err := oracleDecode(tn, key)
		if err != nil {
			t.Fatal(err)
		}
		if class != "" && !matchesClass(ctxStr, class) {
			continue
		}
		if topK > 0 {
			agg[ctxStr] += count
			continue
		}
		rows = append(rows, QueryRow{Context: ctxStr, Count: count})
	}
	if topK == 0 {
		return rows
	}
	var best queryHeap
	for ctxStr, count := range agg {
		row := QueryRow{Context: ctxStr, Count: count}
		if len(best) < topK {
			heap.Push(&best, row)
		} else if rowBeats(row, best[0]) {
			best[0] = row
			heap.Fix(&best, 0)
		}
	}
	out := make([]QueryRow, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(QueryRow)
	}
	return out
}

// oracleTop is /top through the .dpp round trip and the parallel decoder.
func oracleTop(t testing.TB, tn *tenant, n int) TopResponse {
	t.Helper()
	var buf bytes.Buffer
	pw, err := profile.NewWriter(&buf, tn.digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMerged(pw, tn); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	pr, err := profile.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(rec []byte) (string, error) { return oracleDecode(tn, rec) }
	rep, err := profile.DecodeContext(context.Background(), pr, 4, decode, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := TopResponse{Tenant: tn.name, Total: rep.Total, Unique: uint64(len(rep.Rows)), Records: rep.Records}
	for _, row := range rep.Top(n) {
		resp.Rows = append(resp.Rows, TopRow{Context: row.Context, Count: row.Count})
	}
	return resp
}

func sameRows(got, want []QueryRow) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// assertMatchesOracle compares /query (stream and top=K, unfiltered and
// filtered to class) and the whole /top response with the oracle.
func assertMatchesOracle(t *testing.T, url string, tn *tenant, class string) {
	t.Helper()
	for _, c := range []string{"", class} {
		param := ""
		if c != "" {
			param = "&class=" + c
		}
		got := queryRows(t, url+"/query?tenant="+tn.name+param)
		if want := oracleRows(t, tn, 0, c); !sameRows(got, want) {
			t.Fatalf("stream%s: %d rows differ from the oracle's %d:\n got  %v\n want %v", param, len(got), len(want), got, want)
		}
		for _, k := range []int{1, 3, 20, 1000} {
			got := queryRows(t, fmt.Sprintf("%s/query?tenant=%s&top=%d%s", url, tn.name, k, param))
			if want := oracleRows(t, tn, k, c); !sameRows(got, want) {
				t.Fatalf("top=%d%s:\n got  %v\n want %v", k, param, got, want)
			}
		}
	}
	for _, n := range []int{1, 3, 20, 1000} {
		got := getJSON[TopResponse](t, fmt.Sprintf("%s/top?tenant=%s&n=%d", url, tn.name, n))
		if want := oracleTop(t, tn, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("/top n=%d:\n got  %+v\n want %+v", n, got, want)
		}
	}
}

// internStats reads a tenant's intern table size.
func internStats(tn *tenant) (keys, ctxs, bytes int, full bool) {
	tn.intern.mu.RLock()
	defer tn.intern.mu.RUnlock()
	return len(tn.intern.keys), len(tn.intern.ctxs), tn.intern.bytes, tn.intern.full
}

// lowerInternCap sets the intern cap for the rest of the test.
func lowerInternCap(t testing.TB, n int) {
	prev := internMaxBytes
	internMaxBytes = n
	t.Cleanup(func() { internMaxBytes = prev })
}

// copyDir copies the regular files of src into a fresh dst: a crash image
// of a live tenant directory, whose WAL holds every acknowledged batch.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// internServer starts a server over dataDir with the fixture's tenant.
func internServer(t *testing.T, dataDir string, dpa []byte, cfg Config) (*Server, *httptest.Server, *tenant) {
	t.Helper()
	s := newTestServer(t, dataDir, cfg)
	if _, err := s.AddTenant("app", bytes.NewReader(dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	return s, ts, s.tenantByName("app")
}

// ingestFixture posts the fixture's records in four overlapping batches
// of rising counts, so counts differ by context and keys meet in several
// segments, then a batch of three records small enough to stay in a
// 512-byte memtable.
func ingestFixture(t *testing.T, url string, fx fixture, prefix string) {
	t.Helper()
	for i := 0; i < 5; i++ {
		recs, count := fx.records[i*len(fx.records)/8:], uint64(i+1)
		if i == 4 {
			recs = fx.records[:3]
		}
		resp, ir := ingest(t, url, dppBatch(t, fx.digest, recs, count), fmt.Sprintf("%s-%d", prefix, i))
		if resp.StatusCode != http.StatusOK || ir.Quarantined != 0 {
			t.Fatalf("ingest %d: status %d, %+v", i, resp.StatusCode, ir)
		}
	}
}

// TestInternMatchesOracle: /query (stream, top=K, class=) and /top answer
// exactly what the decode-every-record oracle does, in every state the
// intern table can be in against the store.
func TestInternMatchesOracle(t *testing.T) {
	fx := loadFixture(t)
	spread := Config{QueueDepth: 8, MemtableMaxBytes: 512, CompactMinSegments: 100}

	t.Run("segments and memtable", func(t *testing.T) {
		_, ts, tn := internServer(t, t.TempDir(), fx.dpa, spread)
		ingestFixture(t, ts.URL, fx, "spread")
		h := healthz(t, ts.URL).Tenants[0]
		if h.Segments == 0 || h.MemtableBytes == 0 {
			t.Fatalf("store not spread over segments and memtable: %+v", h)
		}
		if keys, _, _, _ := internStats(tn); uint64(keys) != h.UniqueKeys {
			t.Fatalf("ingest interned %d keys, store holds %d", keys, h.UniqueKeys)
		}
		assertMatchesOracle(t, ts.URL, tn, "Even")
	})

	t.Run("distinct keys share a context", func(t *testing.T) {
		_, ts, tn := internServer(t, t.TempDir(), fx.dpa, spread)
		ingestFixture(t, ts.URL, fx, "shared")
		top := getJSON[TopResponse](t, ts.URL+"/top?tenant=app&n=1000")
		keys, ctxs, _, _ := internStats(tn)
		if top.Records <= top.Unique || keys <= ctxs {
			t.Fatalf("no two keys share a context (records %d, unique %d; table %d keys, %d contexts)",
				top.Records, top.Unique, keys, ctxs)
		}
		// /healthz counts stored keys and /top rendered contexts, each
		// under its own name: on this fixture 201 keys render to 18.
		h := getJSON[struct {
			Tenants []map[string]any `json:"tenants"`
		}](t, ts.URL+"/healthz").Tenants[0]
		if _, old := h["unique_contexts"]; old || h["unique_keys"] != 201.0 || top.Unique != 18 {
			t.Fatalf("/healthz unique_keys %v (unique_contexts present: %v), /top unique_contexts %d; want 201 keys, 18 contexts",
				h["unique_keys"], old, top.Unique)
		}
		assertMatchesOracle(t, ts.URL, tn, "R")
	})

	t.Run("after restart", func(t *testing.T) {
		dir := t.TempDir()
		s, ts, _ := internServer(t, dir, fx.dpa, spread)
		ingestFixture(t, ts.URL, fx, "restart")
		ts.Close()
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, ts2, tn := internServer(t, dir, fx.dpa, spread)
		if keys, _, _, _ := internStats(tn); keys != 0 {
			t.Fatalf("table holds %d keys after a restart that replayed nothing", keys)
		}
		// The stream decodes what the table misses and inserts nothing;
		// the first top-K read refills the table.
		got := queryRows(t, ts2.URL+"/query?tenant=app")
		if want := oracleRows(t, tn, 0, ""); !sameRows(got, want) {
			t.Fatalf("stream on an empty table:\n got  %v\n want %v", got, want)
		}
		if keys, _, _, _ := internStats(tn); keys != 0 {
			t.Fatalf("the stream inserted %d keys", keys)
		}
		assertMatchesOracle(t, ts2.URL, tn, "Even")
		if keys, _, _, _ := internStats(tn); uint64(keys) != healthz(t, ts2.URL).Tenants[0].UniqueKeys {
			t.Fatalf("top-K reads refilled %d keys, store holds %d", keys, healthz(t, ts2.URL).Tenants[0].UniqueKeys)
		}
	})

	t.Run("after WAL replay", func(t *testing.T) {
		dir := t.TempDir()
		_, ts, _ := internServer(t, dir, fx.dpa, Config{QueueDepth: 8, MemtableMaxBytes: 64 << 20, WALMaxBytes: 64 << 20})
		ingestFixture(t, ts.URL, fx, "replay")
		crash := t.TempDir()
		copyDir(t, filepath.Join(dir, "app"), filepath.Join(crash, "app"))
		_, ts2, tn := internServer(t, crash, fx.dpa, spread)
		h := healthz(t, ts2.URL).Tenants[0]
		if h.Replayed == 0 || h.Segments != 0 {
			t.Fatalf("store did not come back from the WAL: %+v", h)
		}
		if keys, _, _, _ := internStats(tn); uint64(keys) != h.UniqueKeys {
			t.Fatalf("replay interned %d keys, store holds %d", keys, h.UniqueKeys)
		}
		assertMatchesOracle(t, ts2.URL, tn, "Even")
	})

	t.Run("cap below the store", func(t *testing.T) {
		lowerInternCap(t, 300)
		_, ts, tn := internServer(t, t.TempDir(), fx.dpa, spread)
		ingestFixture(t, ts.URL, fx, "capped")
		keys, ctxs, held, full := internStats(tn)
		top := getJSON[TopResponse](t, ts.URL+"/top?tenant=app&n=1")
		if !full || uint64(keys) >= top.Records || uint64(ctxs) >= top.Unique || held > 300 {
			t.Fatalf("cap not in force: %d keys, %d contexts, %d bytes, full %v; store %d keys, %d contexts",
				keys, ctxs, held, full, top.Records, top.Unique)
		}
		assertMatchesOracle(t, ts.URL, tn, "Even")
		if k, _, _, _ := internStats(tn); k != keys {
			t.Fatalf("reads past the cap grew the table from %d to %d keys", keys, k)
		}
	})
}

// TestInternFloodStopsAtCap: a flood of distinct valid records past a
// lowered cap stops the table growing, and every answer still equals the
// oracle.
func TestInternFloodStopsAtCap(t *testing.T) {
	dpa, bundle, records := diamondBundle(t, 10)
	lowerInternCap(t, 1<<10)
	_, ts, tn := internServer(t, t.TempDir(), dpa, Config{QueueDepth: 8, MemtableMaxBytes: 16 << 10, CompactMinSegments: 100})
	send := func(part [][]byte, prefix string) {
		for i := 0; i < len(part); i += 128 {
			resp, ir := ingest(t, ts.URL, dppBatch(t, bundle.Digest, part[i:min(i+128, len(part))], uint64(1+i%5)), fmt.Sprintf("%s-%d", prefix, i))
			if resp.StatusCode != http.StatusOK || ir.Quarantined != 0 {
				t.Fatalf("flood batch %d: status %d, %+v", i, resp.StatusCode, ir)
			}
		}
	}
	send(records[:512], "a")
	keys, _, held, full := internStats(tn)
	if !full || keys == 0 || keys >= 512 || held > 1<<10 {
		t.Fatalf("after the first flood: %d keys, %d bytes, full %v", keys, held, full)
	}
	send(records[512:], "b")
	assertMatchesOracle(t, ts.URL, tn, "D")
	if k, _, b, _ := internStats(tn); k != keys || b != held {
		t.Fatalf("table grew past its cap: %d keys / %d bytes, then %d / %d", keys, held, k, b)
	}
}

// TestInternRace: agents ingest fresh keys while /query?top, the full
// stream and /top run against the same tenant; run under -race by
// `make ingest-stress`. The final answers equal the oracle.
func TestInternRace(t *testing.T) {
	dpa, bundle, records := diamondBundle(t, 10)
	_, ts, tn := internServer(t, t.TempDir(), dpa, Config{QueueDepth: 16, MemtableMaxBytes: 8 << 10, CompactMinSegments: 3})
	const agents = 4
	var ingestWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for a := 0; a < agents; a++ {
		ingestWG.Add(1)
		go func(a int) {
			defer ingestWG.Done()
			part := records[a*len(records)/agents : (a+1)*len(records)/agents]
			for i := 0; i < len(part); i += 32 {
				body := dppBatch(t, bundle.Digest, part[i:min(i+32, len(part))], uint64(1+a))
				for {
					resp, _ := ingest(t, ts.URL, body, fmt.Sprintf("race-%d-%d", a, i))
					if resp.StatusCode == http.StatusOK {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("agent %d: status %d", a, resp.StatusCode)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(a)
	}
	for _, path := range []string{"/query?tenant=app&top=5", "/query?tenant=app", "/top?tenant=app&n=5"} {
		readWG.Add(1)
		go func(path string) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
					t.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
					return
				}
			}
		}(path)
	}
	ingestWG.Wait()
	close(stop)
	readWG.Wait()
	if t.Failed() {
		return
	}
	assertMatchesOracle(t, ts.URL, tn, "D")
}

// TestTopAbortsWith503: /top answers 503 with Retry-After once the
// server's query context is cancelled, as Close does first.
func TestTopAbortsWith503(t *testing.T) {
	fx := loadFixture(t)
	s, ts, _ := internServer(t, t.TempDir(), fx.dpa, Config{})
	ingestFixture(t, ts.URL, fx, "abort")
	s.cancelQuery()
	resp, err := http.Get(ts.URL + "/top?tenant=app&n=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("/top after cancel: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// BenchmarkQuery measures the read endpoints over a 16,384-context store
// spread over several segments and the memtable.
func BenchmarkQuery(b *testing.B) {
	dpa, bundle, records := diamondBundle(b, 14)
	s := newTestServer(b, b.TempDir(), Config{QueueDepth: 8, MemtableMaxBytes: 256 << 10, CompactMinSegments: 100})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(dpa)); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < len(records); i += 256 {
		body := dppBatch(b, bundle.Digest, records[i:min(i+256, len(records))], uint64(1+(i/256)%7))
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("X-Batch-ID", fmt.Sprintf("bq-%d", i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		b.Fatal(err)
	}
	if th := health.Tenants[0]; th.Segments < 2 || th.MemtableBytes == 0 {
		b.Fatalf("store not spread over segments and memtable: %+v", th)
	}
	for _, bc := range []struct{ name, path string }{
		{"top20", "/query?tenant=app&top=20"},
		{"stream", "/query?tenant=app"},
		{"toprows20", "/top?tenant=app&n=20"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, bc.path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d", bc.path, rec.Code)
				}
			}
		})
	}
}
