package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deltapath"
	"deltapath/internal/analysisio"
	"deltapath/internal/obs"
	"deltapath/internal/profile"
)

// fixture is a real analysis (built by the full pipeline over a testdata
// program) plus valid context records emitted by its interpreter — the
// same inputs a live agent would push.
type fixture struct {
	dpa     []byte
	digest  analysisio.GraphDigest
	records [][]byte
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
	fixtureErr  error
)

func loadFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "recursion.mv"))
		if err != nil {
			fixtureErr = err
			return
		}
		prog, err := deltapath.ParseProgram(string(src))
		if err != nil {
			fixtureErr = err
			return
		}
		an, err := deltapath.Analyze(prog, deltapath.Options{})
		if err != nil {
			fixtureErr = err
			return
		}
		var dpa bytes.Buffer
		if err := an.SaveAnalysis(&dpa); err != nil {
			fixtureErr = err
			return
		}
		bundle, err := analysisio.Load(bytes.NewReader(dpa.Bytes()))
		if err != nil {
			fixtureErr = err
			return
		}
		var records [][]byte
		for seed := uint64(1); seed <= 3; seed++ {
			ctxs, err := an.Run(seed, nil)
			if err != nil {
				fixtureErr = err
				return
			}
			for _, c := range ctxs {
				rec, err := c.MarshalBinary()
				if err != nil {
					fixtureErr = err
					return
				}
				records = append(records, rec)
			}
		}
		if len(records) == 0 {
			fixtureErr = fmt.Errorf("testdata program emitted no contexts")
			return
		}
		fixtureVal = fixture{dpa: dpa.Bytes(), digest: bundle.Digest, records: records}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureVal
}

// dppBatch frames records as one .dpp stream under digest.
func dppBatch(t testing.TB, digest analysisio.GraphDigest, records [][]byte, count uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := profile.NewWriter(&buf, digest)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := w.Add(rec, count); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t testing.TB, dataDir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dataDir
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ingest(t testing.TB, url string, body []byte, batchID string) (*http.Response, IngestResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if batchID != "" {
		req.Header.Set("X-Batch-ID", batchID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	}
	return resp, ir
}

func healthz(t testing.TB, url string) HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServerIngestAndQuery is the happy path end to end: ingest routes by
// digest, acks exactly once, and every query endpoint serves the
// aggregated state.
func TestServerIngestAndQuery(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := dppBatch(t, fx.digest, fx.records, 2)
	resp, ir := ingest(t, ts.URL, body, "batch-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if ir.Applied != len(fx.records) || ir.Quarantined != 0 || ir.Duplicate {
		t.Fatalf("ingest reply: %+v", ir)
	}

	// Idempotent resend: same batch ID is absorbed without double-count.
	resp, ir = ingest(t, ts.URL, body, "batch-1")
	if resp.StatusCode != http.StatusOK || !ir.Duplicate {
		t.Fatalf("resend: status %d, reply %+v", resp.StatusCode, ir)
	}
	h := healthz(t, ts.URL)
	if len(h.Tenants) != 1 {
		t.Fatalf("healthz tenants: %+v", h.Tenants)
	}
	th := h.Tenants[0]
	wantTotal := uint64(len(fx.records)) * 2
	if th.Records != wantTotal || th.Batches != 1 || th.DupBatches != 1 {
		t.Fatalf("healthz after resend: %+v", th)
	}

	// No X-Batch-ID falls back to content addressing: still deduped.
	if _, ir = ingest(t, ts.URL, body, ""); ir.Duplicate {
		t.Fatalf("first content-addressed send marked duplicate")
	}
	if _, ir = ingest(t, ts.URL, body, ""); !ir.Duplicate {
		t.Fatalf("identical content-addressed resend not deduped")
	}

	// /top decodes the aggregate through the parallel decoder.
	resp, err := http.Get(ts.URL + "/top?tenant=app&n=5&workers=2")
	if err != nil {
		t.Fatal(err)
	}
	var top TopResponse
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(top.Rows) == 0 {
		t.Fatalf("/top: status %d, %+v", resp.StatusCode, top)
	}
	for _, row := range top.Rows {
		if !strings.Contains(row.Context, ">") && !strings.Contains(row.Context, "main") {
			t.Fatalf("/top row does not look like a decoded context: %+v", row)
		}
	}

	// /decode renders a single record.
	resp, err = http.Get(ts.URL + "/decode?tenant=app&record=" + hex.EncodeToString(fx.records[0]))
	if err != nil {
		t.Fatal(err)
	}
	var dec map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dec["context"] == "" {
		t.Fatalf("/decode: status %d, %+v", resp.StatusCode, dec)
	}

	// /profile streams back a valid .dpp carrying the same totals.
	resp, err = http.Get(ts.URL + "/profile?tenant=app")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := profile.NewReader(bytes.NewReader(prof))
	if err != nil {
		t.Fatalf("/profile is not a valid .dpp: %v", err)
	}
	if pr.Digest() != fx.digest {
		t.Fatalf("/profile digest %s, want %s", pr.Digest(), fx.digest)
	}
	var streamed uint64
	for {
		_, count, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed += count
	}
	if streamed != wantTotal*2 { // doubled by the content-addressed send
		t.Fatalf("/profile total %d, want %d", streamed, wantTotal*2)
	}

	// /metrics exposes the dp_server_* family.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{obs.MetricServerBatches, obs.MetricServerRecords, obs.MetricServerWALAppends} {
		if !bytes.Contains(prom, []byte(name)) {
			t.Fatalf("/metrics missing %s:\n%s", name, prom)
		}
	}
}

// TestServerRejectsBadIngest: unknown digests, garbage streams, truncated
// streams, and empty batches are refused whole with typed statuses —
// nothing partial lands.
func TestServerRejectsBadIngest(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	otherDigest := fx.digest
	otherDigest.Hash ^= 0xff
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"unknown digest", dppBatch(t, otherDigest, fx.records[:1], 1), http.StatusPreconditionFailed},
		{"garbage", []byte("not a dpp stream"), http.StatusBadRequest},
		{"truncated", dppBatch(t, fx.digest, fx.records, 1)[:len(dppBatch(t, fx.digest, fx.records, 1))-3], http.StatusBadRequest},
		{"empty batch", dppBatch(t, fx.digest, nil, 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := ingest(t, ts.URL, tc.body, "")
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if h := healthz(t, ts.URL); h.Tenants[0].Records != 0 {
		t.Fatalf("refused ingests left records behind: %+v", h.Tenants[0])
	}
}

// TestServerQuarantine: records that arrive intact but do not decode are
// quarantined by class — the batch still succeeds and the good records
// land. Graceful degradation, not batch failure.
func TestServerQuarantine(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two well-framed but undecodable records alongside one good one.
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	mangled := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	body := dppBatch(t, fx.digest, [][]byte{fx.records[0], garbage, mangled}, 1)
	resp, ir := ingest(t, ts.URL, body, "q-batch")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if ir.Applied != 1 || ir.Quarantined != 2 {
		t.Fatalf("ingest reply: %+v", ir)
	}
	th := healthz(t, ts.URL).Tenants[0]
	quarantined := th.QuarantinedCorrupt + th.QuarantinedNoEdge + th.QuarantinedResidual + th.QuarantinedMangled
	if quarantined != 2 || th.Records != 1 {
		t.Fatalf("healthz after quarantine: %+v", th)
	}
	// /decode reports the same failure as 422 rather than 500.
	resp, err := http.Get(ts.URL + "/decode?tenant=app&record=" + hex.EncodeToString(garbage))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/decode of garbage: %d, want 422", resp.StatusCode)
	}
}

// TestServerRecovery: acked state survives a full stop/start cycle — the
// store, the idempotency set, and the digest binding all recover from
// snapshot + WAL.
func TestServerRecovery(t *testing.T) {
	fx := loadFixture(t)
	dir := t.TempDir()

	s := newTestServer(t, dir, Config{})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	body := dppBatch(t, fx.digest, fx.records, 3)
	if resp, _ := ingest(t, ts.URL, body, "persist-1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	want := healthz(t, ts.URL).Tenants[0]
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Second life: same data dir, fresh process state.
	s2 := newTestServer(t, dir, Config{})
	defer s2.Close(context.Background())
	th, err := s2.AddTenant("app", bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	if th.Records != want.Records || th.UniqueKeys != want.UniqueKeys {
		t.Fatalf("recovered %d records (%d unique), want %d (%d)",
			th.Records, th.UniqueKeys, want.Records, want.UniqueKeys)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	// The applied set survived: the old batch ID still dedupes.
	if _, ir := ingest(t, ts2.URL, body, "persist-1"); !ir.Duplicate {
		t.Fatal("applied-batch set did not survive restart")
	}
	if got := healthz(t, ts2.URL).Tenants[0].Records; got != want.Records {
		t.Fatalf("post-restart resend changed totals: %d, want %d", got, want.Records)
	}
}

// TestServerRecoveryRefusesChangedAnalysis: restarting a tenant against a
// different analysis refuses to replay its durable state.
func TestServerRecoveryRefusesChangedAnalysis(t *testing.T) {
	fx := loadFixture(t)
	dir := t.TempDir()
	s := newTestServer(t, dir, Config{})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	if resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, fx.records, 1), "b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest failed")
	}
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A different program produces a different graph digest.
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "shapes.mv"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := deltapath.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var otherDpa bytes.Buffer
	if err := an.SaveAnalysis(&otherDpa); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, dir, Config{})
	defer s2.Close(context.Background())
	if _, err := s2.AddTenant("app", bytes.NewReader(otherDpa.Bytes())); err == nil {
		t.Fatal("tenant reopened against a different analysis")
	}
}

// TestServerShedsWhenQueueFull: with the worker stalled and the queue
// full, ingest sheds synchronously with 429 + Retry-After and counts the
// shed — it never blocks the accept loop. Once the worker drains, the
// queued batches all ack.
func TestServerShedsWhenQueueFull(t *testing.T) {
	fx := loadFixture(t)
	const depth = 4
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: depth, RetryAfterSeconds: 7})
	bundle, err := analysisio.Load(bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	// Construct the tenant by hand WITHOUT starting its worker, so the
	// queue fills deterministically.
	tn, err := newTenant("app", bundle, filepath.Join(s.cfg.DataDir, "app"), s.cfg, s.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.byName["app"] = tn
	s.byDigest[tn.digest] = tn
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	oks := make(chan int, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := dppBatch(t, fx.digest, fx.records[:1], uint64(i+1))
			resp, _ := ingest(t, ts.URL, body, fmt.Sprintf("fill-%d", i))
			oks <- resp.StatusCode
		}(i)
	}
	// Wait for all four to be parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(tn.queue) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(tn.queue), depth)
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/ingest",
		bytes.NewReader(dppBatch(t, fx.digest, fx.records[:1], 99)))
	req.Header.Set("X-Batch-ID", "overflow")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow ingest: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want 7", resp.Header.Get("Retry-After"))
	}

	// Start the worker; every parked batch must ack, and the shed counter
	// must show exactly the one overflow.
	tn.wg.Add(1)
	go tn.run(s.m)
	wg.Wait()
	close(oks)
	for code := range oks {
		if code != http.StatusOK {
			t.Fatalf("parked ingest finished with %d", code)
		}
	}
	if got := tn.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := s.reg.Counter(obs.MetricServerShed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricServerShed, got)
	}
	tn.beginDrain(context.Background())
	tn.wg.Wait()
}

// TestServerDrainAppliesQueued: batches already queued when shutdown
// begins are applied (and acknowledged) during the drain, not refused —
// the drain context is the Close caller's budget, not the cancelled query
// context.
func TestServerDrainAppliesQueued(t *testing.T) {
	fx := loadFixture(t)
	const depth = 4
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: depth})
	bundle, err := analysisio.Load(bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	// Tenant by hand, worker deliberately not started: the queue fills and
	// stays full until the drain runs.
	tn, err := newTenant("app", bundle, filepath.Join(s.cfg.DataDir, "app"), s.cfg, s.reg)
	if err != nil {
		t.Fatal(err)
	}
	s.byName["app"] = tn
	s.byDigest[tn.digest] = tn
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := dppBatch(t, fx.digest, fx.records[:1], uint64(i+1))
			resp, _ := ingest(t, ts.URL, body, fmt.Sprintf("drain-%d", i))
			codes <- resp.StatusCode
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(tn.queue) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(tn.queue), depth)
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown begins with a healthy drain budget; the worker starts and
	// immediately drains. Every parked batch must come back acknowledged.
	tn.beginDrain(context.Background())
	tn.wg.Add(1)
	go tn.run(s.m)
	wg.Wait()
	tn.wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued batch finished with %d during drain, want 200", code)
		}
	}
	var want uint64
	for i := 1; i <= depth; i++ {
		want += uint64(i)
	}
	if got := tn.records(); got != want {
		t.Fatalf("drained store total %d, want %d", got, want)
	}

	// Post-drain, enqueue refuses with the draining signal, not a shed.
	ok, draining := tn.enqueue(&batch{id: "late", done: make(chan batchResult, 1)})
	if ok || !draining {
		t.Fatalf("post-drain enqueue: ok=%v draining=%v, want refused as draining", ok, draining)
	}
}

// TestServerDrainDeadlineRefuses: batches still queued once the drain
// budget is spent are refused — they were never acknowledged, so refusal
// loses nothing.
func TestServerDrainDeadlineRefuses(t *testing.T) {
	fx := loadFixture(t)
	const depth = 3
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: depth})
	bundle, err := analysisio.Load(bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newTenant("app", bundle, filepath.Join(s.cfg.DataDir, "app"), s.cfg, s.reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		b := &batch{id: fmt.Sprintf("late-%d", i), recs: []profile.Record{{Key: fx.records[0], Count: 1}},
			done: make(chan batchResult, 1)}
		if ok, _ := tn.enqueue(b); !ok {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	tn.beginDrain(expired)
	tn.wg.Add(1)
	go tn.run(s.m)
	tn.wg.Wait()
	if got := tn.records(); got != 0 {
		t.Fatalf("expired drain applied %d records, want 0", got)
	}
}

// TestServerCloseIngestRace: Close racing live ingest traffic must never
// panic the handlers (the queue channel is not closed under producers) —
// every request finishes with 200, 429, or 503. Run with -race in CI.
func TestServerCloseIngestRace(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: 2})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				body := dppBatch(t, fx.digest, fx.records[:1], 1)
				resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					// A handler panic kills the connection mid-response;
					// any transport error here is a failure.
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
				case http.StatusServiceUnavailable:
					return // draining reached this client; clean exit
				default:
					errs <- fmt.Errorf("client %d req %d: status %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	close(start)
	time.Sleep(10 * time.Millisecond) // let traffic build before the close races it
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerDrainRefusal: after Close begins, ingest answers 503 +
// Retry-After and /healthz reports draining.
func TestServerDrainRefusal(t *testing.T) {
	fx := loadFixture(t)
	s := newTestServer(t, t.TempDir(), Config{})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ := ingest(t, ts.URL, dppBatch(t, fx.digest, fx.records[:1], 1), "late")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if h := healthz(t, ts.URL); h.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", h.Status)
	}
	// The drain must be visible at the HTTP layer too, so health-checked
	// load balancers stop routing here.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hresp.StatusCode)
	}
}

// TestServerSnapshotTrigger: a tiny WAL budget forces snapshot + WAL
// truncation mid-stream; totals stay exact and recovery still works.
func TestServerSnapshotTrigger(t *testing.T) {
	fx := loadFixture(t)
	dir := t.TempDir()
	s := newTestServer(t, dir, Config{WALMaxBytes: 256})
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	const batches = 8
	for i := 0; i < batches; i++ {
		body := dppBatch(t, fx.digest, fx.records, 1)
		if resp, _ := ingest(t, ts.URL, body, fmt.Sprintf("s-%d", i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: not ok", i)
		}
	}
	th := healthz(t, ts.URL).Tenants[0]
	if th.Snapshots == 0 {
		t.Fatalf("no snapshot despite %d-byte WAL budget: %+v", 256, th)
	}
	want := th.Records
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, dir, Config{})
	defer s2.Close(context.Background())
	th2, err := s2.AddTenant("app", bytes.NewReader(fx.dpa))
	if err != nil {
		t.Fatal(err)
	}
	if th2.Records != want {
		t.Fatalf("recovered %d records, want %d", th2.Records, want)
	}
}

// TestServerIngestStress: many concurrent agents, a small queue, and
// retry-on-429 — the exactly-once contract holds under overload: every
// distinct batch lands exactly once, and sheds are visible in the
// metrics, not silent. Run with -race in CI.
func TestServerIngestStress(t *testing.T) {
	fx := loadFixture(t)
	agents, perAgent := 8, 40
	if testing.Short() {
		agents, perAgent = 4, 10
	}
	s := newTestServer(t, t.TempDir(), Config{QueueDepth: 2})
	defer s.Close(context.Background())
	if _, err := s.AddTenant("app", bytes.NewReader(fx.dpa)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < perAgent; b++ {
				body := dppBatch(t, fx.digest, fx.records, uint64(a*perAgent+b+1))
				id := fmt.Sprintf("agent-%d-batch-%d", a, b)
				// Send twice: a retry storm. Dedup must absorb it.
				for attempt := 0; attempt < 2; attempt++ {
					for {
						req, _ := http.NewRequest("POST", ts.URL+"/ingest", bytes.NewReader(body))
						req.Header.Set("X-Batch-ID", id)
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							errs <- err
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							break
						}
						if resp.StatusCode != http.StatusTooManyRequests {
							errs <- fmt.Errorf("batch %s: status %d", id, resp.StatusCode)
							return
						}
					}
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly-once accounting: sum of every batch's counts, once each.
	var want uint64
	for i := 1; i <= agents*perAgent; i++ {
		want += uint64(i) * uint64(len(fx.records))
	}
	th := healthz(t, ts.URL).Tenants[0]
	if th.Records != want {
		t.Fatalf("store total %d, want %d (exactly-once violated)", th.Records, want)
	}
	if th.Batches != uint64(agents*perAgent) {
		t.Fatalf("applied batches %d, want %d", th.Batches, agents*perAgent)
	}
	if th.DupBatches != uint64(agents*perAgent) {
		t.Fatalf("duplicate batches %d, want %d", th.DupBatches, agents*perAgent)
	}
}
