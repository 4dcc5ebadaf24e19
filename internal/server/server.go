// Package server is dprofiled's engine: a fault-tolerant, multi-tenant
// profile ingestion service over the streaming .dpp pipeline.
//
// Robustness is the headline, delivered by four mechanisms:
//
//   - Backpressure: each tenant has a bounded ingest queue. A full queue
//     sheds the batch with 429 + Retry-After instead of blocking the
//     accept loop or buffering unboundedly; the agent client retries with
//     jittered exponential backoff, and dp_server_shed_total counts every
//     shed so overload is visible, not silent.
//
//   - Durability: a batch is acknowledged only after its records are
//     fsynced to the tenant's write-ahead log. The worker group-commits:
//     every batch that queued while the previous fsync ran rides the next
//     one, so the fsync cost amortizes across the group without weakening
//     the fsync-before-ack contract. kill -9 at any instant loses no
//     acknowledged batch; restart replays the WAL tail (dropping at most a
//     half-written unacknowledged suffix) after re-certifying the analysis
//     digest. Memtable flushes into immutable sorted segments (an
//     LSM-style manifest + background compaction) bound replay time and
//     keep reads streaming.
//
//   - Graceful degradation: records that fail to decode (corrupt
//     encoding, no matching edge, residual ID) are quarantined with
//     per-class health counters; the rest of the batch lands. Shutdown
//     stops intake, drains queues under a deadline, and flushes final
//     snapshots.
//
//   - Idempotency: batches carry client-assigned IDs; a resend of an
//     applied batch (a retry after a lost acknowledgement) is absorbed
//     without double-counting.
//
// Endpoints: POST /ingest (a .dpp stream; routed to the tenant whose
// analysis digest matches the profile header), GET /top, GET /decode,
// GET /profile (the store streamed back as .dpp), GET /query (decoded
// rows streamed as NDJSON with O(segments) server memory), GET /healthz,
// GET /metrics (Prometheus).
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"deltapath/internal/analysisio"
	"deltapath/internal/obs"
	"deltapath/internal/profile"
)

// Config configures a Server. Zero values select the defaults.
type Config struct {
	// DataDir is the root of per-tenant durable state (one subdirectory
	// per tenant). Required.
	DataDir string
	// QueueDepth bounds each tenant's ingest queue in batches
	// (default 64). A full queue sheds with 429.
	QueueDepth int
	// WALMaxBytes triggers a snapshot + WAL truncation once a tenant's
	// WAL grows past it (default 1 MiB).
	WALMaxBytes int64
	// RetryAfterSeconds is advertised on 429/503 responses (default 1).
	RetryAfterSeconds int
	// MaxBodyBytes bounds one ingest request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchRecords bounds the records in one batch (default 100000).
	MaxBatchRecords int
	// MemtableMaxBytes flushes a tenant's memtable to a segment once its
	// approximate resident size passes it (default 4 MiB).
	MemtableMaxBytes int64
	// CompactMinSegments triggers background compaction once a tenant has
	// at least this many live segments (default 4).
	CompactMinSegments int
	// NoGroupCommit restores the per-batch fsync path: every batch gets
	// its own WAL append + fsync instead of riding a commit group. Only
	// useful for measuring what group commit buys.
	NoGroupCommit bool
	// Registry receives the dp_server_* metrics (nil = metrics off).
	Registry *obs.Registry
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return errors.New("server: Config.DataDir is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.WALMaxBytes <= 0 {
		c.WALMaxBytes = 1 << 20
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 100000
	}
	if c.MemtableMaxBytes <= 0 {
		c.MemtableMaxBytes = 4 << 20
	}
	if c.CompactMinSegments <= 0 {
		c.CompactMinSegments = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// metrics is the once-resolved dp_server_* sink set (all nil-safe).
type metrics struct {
	batches     *obs.Counter
	dupBatches  *obs.Counter
	records     *obs.Counter
	shed        *obs.Counter
	quarantined *obs.Counter
	walAppends  *obs.Counter
	walReplayed *obs.Counter
	walTrunc    *obs.Counter
	snapshots   *obs.Counter

	groupFsyncs    *obs.Counter
	groupBatches   *obs.Histogram
	commitWait     *obs.Histogram
	compactions    *obs.Counter
	compactedPairs *obs.Counter
	compactNs      *obs.Counter
	orphanSegs     *obs.Counter

	queueDepth    *obs.Gauge
	walBytes      *obs.Gauge
	tenants       *obs.Gauge
	segments      *obs.Gauge
	memtableBytes *obs.Gauge
	logf          func(string, ...any)
}

func newMetrics(reg *obs.Registry, logf func(string, ...any)) *metrics {
	return &metrics{
		batches:     reg.Counter(obs.MetricServerBatches),
		dupBatches:  reg.Counter(obs.MetricServerBatchesDup),
		records:     reg.Counter(obs.MetricServerRecords),
		shed:        reg.Counter(obs.MetricServerShed),
		quarantined: reg.Counter(obs.MetricServerQuarantined),
		walAppends:  reg.Counter(obs.MetricServerWALAppends),
		walReplayed: reg.Counter(obs.MetricServerWALReplayed),
		walTrunc:    reg.Counter(obs.MetricServerWALTruncated),
		snapshots:   reg.Counter(obs.MetricServerSnapshots),

		groupFsyncs:    reg.Counter(obs.MetricServerGroupFsyncs),
		groupBatches:   reg.Histogram(obs.MetricServerGroupBatches, nil),
		commitWait:     reg.Histogram(obs.MetricServerCommitWaitNs, obs.CommitWaitBuckets),
		compactions:    reg.Counter(obs.MetricServerCompactions),
		compactedPairs: reg.Counter(obs.MetricServerCompactedPairs),
		compactNs:      reg.Counter(obs.MetricServerCompactNs),
		orphanSegs:     reg.Counter(obs.MetricServerOrphanSegments),

		queueDepth:    reg.Gauge(obs.MetricServerQueueDepth),
		walBytes:      reg.Gauge(obs.MetricServerWALBytes),
		tenants:       reg.Gauge(obs.MetricServerTenants),
		segments:      reg.Gauge(obs.MetricServerSegments),
		memtableBytes: reg.Gauge(obs.MetricServerMemtableBytes),
		logf:          logf,
	}
}

// Server is the ingestion service. Create with New, register tenants with
// AddTenant, serve Handler(), and Close on shutdown.
type Server struct {
	cfg Config
	m   *metrics
	reg *obs.Registry

	mu       sync.RWMutex
	byName   map[string]*tenant
	byDigest map[analysisio.GraphDigest]*tenant

	// draining flips once Close begins: ingest returns 503 from then on.
	draining atomic.Bool
	// queryCtx is cancelled first thing in Close, aborting in-flight /top
	// and /query reads promptly (they stop between chunks of pairs).
	queryCtx    context.Context
	cancelQuery context.CancelFunc

	closeOnce sync.Once
	closeErr  error
}

// New validates cfg and returns an empty server; add tenants before
// serving.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:         cfg,
		m:           newMetrics(cfg.Registry, cfg.Logf),
		reg:         cfg.Registry,
		byName:      map[string]*tenant{},
		byDigest:    map[analysisio.GraphDigest]*tenant{},
		queryCtx:    ctx,
		cancelQuery: cancel,
	}, nil
}

// AddTenant registers a tenant named name for the persisted analysis read
// from r (a .dpa stream), recovering any durable state under
// DataDir/name and starting its worker. Ingested profiles are routed to
// the tenant whose digest matches their header.
func (s *Server) AddTenant(name string, r io.Reader) (TenantHealth, error) {
	if s.draining.Load() {
		return TenantHealth{}, errors.New("server: draining, not accepting tenants")
	}
	bundle, err := analysisio.Load(r)
	if err != nil {
		return TenantHealth{}, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		return TenantHealth{}, fmt.Errorf("server: tenant %s already registered", name)
	}
	if prev, ok := s.byDigest[bundle.Digest]; ok {
		return TenantHealth{}, fmt.Errorf("server: tenant %s: digest %s already served by tenant %s",
			name, bundle.Digest, prev.name)
	}
	t, err := newTenant(name, bundle, filepath.Join(s.cfg.DataDir, name), s.cfg, s.reg)
	if err != nil {
		return TenantHealth{}, fmt.Errorf("server: %w", err)
	}
	s.m.walReplayed.Add(t.replayed.Load())
	s.m.walTrunc.Add(t.truncatedTails.Load())
	s.m.orphanSegs.Add(t.orphans.Load())
	s.m.segments.Set(uint64(t.segs.count()))
	s.byName[name] = t
	s.byDigest[t.digest] = t
	s.m.tenants.Set(uint64(len(s.byName)))
	t.wg.Add(1)
	go t.run(s.m)
	h := t.health()
	s.cfg.Logf("tenant %s: recovered %d records (%d unique keys), %d replayed from WAL, truncated tails %d",
		name, h.Records, h.UniqueKeys, h.Replayed, h.TruncatedTails)
	return h, nil
}

// tenantByName resolves a query's tenant parameter.
func (s *Server) tenantByName(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byName[name]
}

func (s *Server) tenants() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.byName))
	for _, t := range s.byName {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close shuts the server down gracefully: queries are aborted, intake is
// refused with 503, queued batches drain under ctx's deadline, and every
// tenant flushes a final snapshot. Safe to call once; returns the first
// error.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.cancelQuery()

		// Hand each tenant the caller's ctx as its drain budget (queryCtx
		// is already cancelled — it aborts queries, not the drain) and cut
		// producers off. The queue channel is never closed: in-flight
		// ingest handlers may still be sending, and beginDrain makes those
		// sends fail cleanly instead of panicking.
		tenants := s.tenants()
		for _, t := range tenants {
			t.beginDrain(ctx)
		}
		done := make(chan struct{})
		go func() {
			for _, t := range tenants {
				t.wg.Wait()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.closeErr = fmt.Errorf("server: drain deadline passed: %w", ctx.Err())
		}
	})
	return s.closeErr
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /top", s.handleTop)
	mux.HandleFunc("GET /decode", s.handleDecode)
	mux.HandleFunc("GET /profile", s.handleProfile)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
}

// IngestResponse is the /ingest success payload.
type IngestResponse struct {
	Status      string `json:"status"`
	Batch       string `json:"batch"`
	Tenant      string `json:"tenant"`
	Records     int    `json:"records"`
	Applied     int    `json:"applied"`
	Quarantined int    `json:"quarantined"`
	Duplicate   bool   `json:"duplicate"`
}

// handleIngest accepts one batch: a .dpp stream whose header digest routes
// it to a tenant. The X-Batch-ID header (or, absent that, a content hash)
// keys idempotent resends. The handler never blocks on a full queue — it
// sheds with 429 + Retry-After.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	pr, err := profile.NewReader(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	t := s.byDigest[pr.Digest()]
	s.mu.RUnlock()
	if t == nil {
		httpError(w, http.StatusPreconditionFailed,
			"no tenant serves analysis digest %s (stale analysis or unregistered program?)", pr.Digest())
		return
	}
	// From here until the batch reaches the queue (or is refused) this
	// handler is a pusher the tenant's worker can wait for: raising
	// inflight tells it that holding the current commit group open can
	// still gain a joiner. The gauge must drop at enqueue-resolution, NOT
	// at handler return — after enqueueing we block on the worker's own
	// ack, and counting ourselves as still inbound would make the worker
	// wait out its full window cap on every group. The deferred form only
	// covers the early-return paths below.
	t.inflight.Add(1)
	pending := true
	defer func() {
		if pending {
			t.inflight.Add(-1)
		}
	}()
	var recs []profile.Record
	for {
		rec, count, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A truncated or corrupt *stream* is a transport-level
			// failure: the batch is refused whole (the agent retries);
			// per-record quarantine is for records that arrive intact
			// but do not decode.
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(recs) == s.cfg.MaxBatchRecords {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch exceeds %d records", s.cfg.MaxBatchRecords)
			return
		}
		recs = append(recs, profile.Record{Key: rec, Count: count})
	}
	if len(recs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	id := r.Header.Get("X-Batch-ID")
	if id == "" {
		// Content-addressed fallback: identical resends still dedupe.
		// SHA-256 (truncated to 128 bits) makes accidental collision
		// between distinct payloads a non-concern; byte-identical
		// unlabeled batches are deliberately treated as one batch.
		sum := sha256.Sum256(body)
		id = "sha256-" + hex.EncodeToString(sum[:16])
	}
	if len(id) > 1024 {
		httpError(w, http.StatusBadRequest, "batch ID exceeds 1024 bytes")
		return
	}

	// Canonicalize here, in the handler goroutine, not in the worker: the
	// decode+re-marshal is the CPU-heavy half of application, and running
	// it before enqueue lets it overlap the worker's fsync of the previous
	// commit group instead of serializing behind it. An all-quarantined
	// batch still enqueues (possibly empty) so its ID enters the dedupe
	// window and the ack carries the full accounting.
	nRecs := len(recs)
	clean, quarantined := t.canonicalize(recs)
	b := &batch{id: id, recs: clean, quarantined: quarantined, done: make(chan batchResult, 1)}
	ok, draining := t.enqueue(b)
	pending = false
	t.inflight.Add(-1)
	if draining {
		// Close began after the handler's draining check above — the
		// tenant refuses cleanly rather than racing the shutdown.
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if !ok {
		s.m.shed.Inc()
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests,
			"tenant %s ingest queue full (%d batches)", t.name, cap(t.queue))
		return
	}
	s.m.queueDepth.Set(uint64(len(t.queue)))

	// Wait for the worker's durable acknowledgement. If the client goes
	// away the batch still applies — its retry will dedupe by ID.
	select {
	case res := <-b.done:
		if res.err != nil {
			s.retryAfter(w)
			httpError(w, http.StatusServiceUnavailable, "%v", res.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(IngestResponse{
			Status:      "ok",
			Batch:       id,
			Tenant:      t.name,
			Records:     nRecs,
			Applied:     res.applied,
			Quarantined: res.quarantined,
			Duplicate:   res.duplicate,
		})
	case <-r.Context().Done():
		// Client disconnected; nothing useful to write.
	}
}

// TopRow is one /top row, the same shape as a /query row.
type TopRow = QueryRow

// TopResponse is the /top payload.
type TopResponse struct {
	Tenant  string   `json:"tenant"`
	Total   uint64   `json:"total"`
	Unique  uint64   `json:"unique_contexts"`
	Records uint64   `json:"records"`
	Rows    []TopRow `json:"rows"`
}

// handleTop renders the tenant's hottest contexts through the top-K read
// /query?top= uses (query.go), with the store's totals. The read runs
// under both the request context and the server's query context, so a
// client disconnect or a server shutdown aborts it between chunks of
// pairs, answered 503 + Retry-After. A workers parameter is accepted and
// ignored: nothing is decoded in parallel any more.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	t := s.tenantByName(r.URL.Query().Get("tenant"))
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", r.URL.Query().Get("tenant"))
		return
	}
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}

	ctx, cancel := mergeContexts(r.Context(), s.queryCtx)
	defer cancel()
	resp, err := t.topContexts(ctx, n, "")
	if err != nil {
		if ctx.Err() != nil {
			s.retryAfter(w)
			httpError(w, http.StatusServiceUnavailable, "read aborted: %v", ctx.Err())
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.Tenant = t.name
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleDecode decodes one hex-encoded context record.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	t := s.tenantByName(r.URL.Query().Get("tenant"))
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", r.URL.Query().Get("tenant"))
		return
	}
	rec, err := hex.DecodeString(r.URL.Query().Get("record"))
	if err != nil || len(rec) == 0 {
		httpError(w, http.StatusBadRequest, "record must be non-empty hex")
		return
	}
	ctxStr, _, err := t.decodeInto(nil, rec)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"context": ctxStr})
}

// handleProfile streams the tenant's current aggregate back as a .dpp
// profile — the server's store is itself a valid dpdecode input.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	t := s.tenantByName(r.URL.Query().Get("tenant"))
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown tenant %q", r.URL.Query().Get("tenant"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	pw, err := profile.NewWriter(w, t.digest)
	if err != nil {
		return
	}
	if err := writeMerged(pw, t); err != nil {
		return
	}
	pw.Flush()
}

// writeMerged streams the tenant's full aggregate — segments merged with
// the memtable — into a profile writer. Memory is O(segments), not
// O(store).
func writeMerged(pw *profile.Writer, t *tenant) error {
	mi, err := t.openMerge()
	if err != nil {
		return err
	}
	defer mi.close()
	for {
		key, count, err := mi.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := pw.Add(key, count); err != nil {
			return err
		}
	}
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status  string         `json:"status"`
	Tenants []TenantHealth `json:"tenants"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	code := http.StatusOK
	if s.draining.Load() {
		// A draining server 503s all ingest; report that at the HTTP
		// layer too, so health-checked load balancers stop routing to it.
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	for _, t := range s.tenants() {
		resp.Tenants = append(resp.Tenants, t.health())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		httpError(w, http.StatusNotFound, "metrics registry disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// mergeContexts returns a context cancelled when either parent is. A
// parent already cancelled cancels it before it is returned: AfterFunc
// would only do so on a goroutine of its own, after a short read may have
// finished.
func mergeContexts(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	if b.Err() != nil {
		cancel()
	}
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}
