package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltapath"
	"deltapath/internal/obs"
	"deltapath/internal/server"
	"deltapath/internal/workload"
)

// ingest-query: dprofiled in process. Two closed-loop clients post
// prebuilt .dpp batches to the server's handler, each batch under a unique
// X-Batch-ID, and client 0 asks for the top-K contexts every few
// operations. The WAL size threshold is low enough that flushes and
// compactions land inside the window.

const (
	ingestProgram = "mpegaudio" // the tenant's program, and its name
	ingestClient  = 2           // goroutines issuing work
	maxAttempts   = 1000
)

// batchBody is one prebuilt .dpp batch and the records it carries.
type batchBody struct {
	body []byte
	recs []deltapath.ProfileRecord
}

type ingestStage struct {
	sz   sizes
	seed uint64
	an   *deltapath.Analysis
	dpa  []byte
	pool []batchBody
	dir  string
	reg  *obs.Registry // non-nil in the traced arm: server metrics on
	srv  *server.Server
	warm []int // acked warm-up sends per pool body
	// windows numbers the load windows run against the server, so batch
	// IDs stay unique across them.
	windows int
}

// setupIngest analyses the program, turns several seeded runs into batches
// the way a profiling agent would, starts a server with one tenant over the
// analysis and warms it up.
//
// The agent behind each run feeds every emit to a Profile and ships the
// profile as one .dpp batch whenever it holds batchRecords distinct
// contexts. So which contexts a batch holds, and their counts, are the
// program's own: a context recurs across batches as often as the run
// returns to it.
func setupIngest(r *run, sz sizes, seed uint64, dir string, reg *obs.Registry) (*ingestStage, error) {
	p, ok := workload.ByName(ingestProgram)
	if !ok {
		return nil, fmt.Errorf("no suite program %q", ingestProgram)
	}
	prog, err := p.Generate()
	if err != nil {
		return nil, err
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{})
	if err != nil {
		return nil, err
	}
	st := &ingestStage{sz: sz, seed: seed, an: an, dir: dir, reg: reg}

	prof := an.NewProfile(0)
	var shipErr error
	ship := func() {
		if prof.Unique() == 0 || shipErr != nil {
			return
		}
		var buf bytes.Buffer
		if shipErr = prof.Save(&buf); shipErr == nil {
			st.pool = append(st.pool, batchBody{body: buf.Bytes(), recs: prof.Records()})
		}
		prof = an.NewProfile(0)
	}
	for k := 0; k < sz.recordRuns; k++ {
		s, err := an.NewSession(mix(seed, 100+uint64(k)))
		if err != nil {
			return nil, err
		}
		if _, err := s.Run(func(c deltapath.Context) {
			if prof.Add(c) && prof.Unique() == uint64(sz.batchRecords) {
				ship()
			}
		}); err != nil {
			return nil, err
		}
		ship()
	}
	if shipErr != nil {
		return nil, shipErr
	}
	if len(st.pool) == 0 {
		return nil, fmt.Errorf("%s: the seeded runs emitted no contexts", ingestProgram)
	}
	var dpa bytes.Buffer
	if err := an.SaveAnalysis(&dpa); err != nil {
		return nil, err
	}
	st.dpa = dpa.Bytes()
	if st.srv, err = st.start(); err != nil {
		return nil, err
	}
	st.warm = st.window(r, nil, 0, sz.warmBatches).acked
	return st, nil
}

// start opens a server over the stage's data directory (recovering any
// state there) and registers the tenant.
func (st *ingestStage) start() (*server.Server, error) {
	srv, err := server.New(server.Config{DataDir: st.dir, WALMaxBytes: st.sz.walMaxBytes, Registry: st.reg})
	if err != nil {
		return nil, err
	}
	if _, err := srv.AddTenant(ingestProgram, bytes.NewReader(st.dpa)); err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	return srv, nil
}

func closeServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Close(ctx)
}

// ingestWindow is what one window of load, or one client's share of it,
// measured.
type ingestWindow struct {
	elapsed    time.Duration
	sends      []send
	queryMs    []float64
	acked      []int // acked sends per pool body
	shed       int   // 429/503 answers the client retried
	ingestTime time.Duration
	segments   []float64 // dp_server_segments before each query (traced)
}

// add appends a later window of load on the same server. Its sends are
// shifted to follow w's, so the parts read as one window.
func (w *ingestWindow) add(p ingestWindow) {
	for _, s := range p.sends {
		s.at += w.elapsed
		w.sends = append(w.sends, s)
	}
	w.elapsed += p.elapsed
	w.queryMs = append(w.queryMs, p.queryMs...)
	w.segments = append(w.segments, p.segments...)
	if w.acked == nil {
		w.acked = make([]int, len(p.acked))
	}
	for i, n := range p.acked {
		w.acked[i] += n
	}
	w.shed += p.shed
	w.ingestTime += p.ingestTime
}

// send is one batch's outcome.
type send struct {
	at      time.Duration // when it was acked or given up, since the window began
	ms      float64       // send-to-ack latency; a batch never acked counts as the whole window
	records int           // acked record entries (0 if never acked)
}

// window drives the two clients. With timed > 0 they run for that long;
// otherwise until batches sends have been issued.
func (st *ingestStage) window(r *run, tr *tracer, timed time.Duration, batches int) ingestWindow {
	h := st.srv.Handler()
	st.windows++
	prefix := fmt.Sprintf("s%d-w%d", st.seed, st.windows)
	var ops atomic.Int64
	results := make([]ingestWindow, ingestClient)
	errs := make([][]error, ingestClient)
	start := time.Now()
	stop := func() bool {
		if timed > 0 {
			return time.Since(start) >= timed
		}
		return ops.Add(1) > int64(batches)
	}
	var wg sync.WaitGroup
	for c := 0; c < ingestClient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.acked = make([]int, len(st.pool))
			lane := c + 2
			root := tr.begin(nil, fmt.Sprintf("client %d", c), "bench", "", lane)
			defer root.end()
			for i := 0; !stop(); i++ {
				if c == 0 && i%st.sz.queryEvery == st.sz.queryEvery-1 {
					if tr != nil {
						n, err := st.segmentsNow(h, tr, root, lane)
						errs[c] = append(errs[c], err)
						res.segments = append(res.segments, n)
					}
					d, _, err := st.query(h, tr, root, lane, fmt.Sprintf("%s-q%d-%d", prefix, c, i), fmt.Sprintf("&top=%d", st.sz.topK))
					res.queryMs = append(res.queryMs, ms(d))
					errs[c] = append(errs[c], err)
				}
				idx := (2*i + c) % len(st.pool)
				id := fmt.Sprintf("%s-c%d-%d", prefix, c, i)
				d, inside, shed, err := st.send(h, &st.pool[idx], id, tr, root, lane)
				res.shed += shed
				res.ingestTime += inside
				errs[c] = append(errs[c], err)
				if err != nil {
					res.sends = append(res.sends, send{at: time.Since(start), ms: -1}) // ms filled in below
					continue
				}
				res.sends = append(res.sends, send{at: time.Since(start), ms: ms(d), records: len(st.pool[idx].recs)})
				res.acked[idx]++
			}
		}(c)
	}
	wg.Wait()
	w := ingestWindow{elapsed: time.Since(start), acked: make([]int, len(st.pool))}
	for c, res := range results {
		for _, err := range errs[c] {
			r.op(err)
		}
		for _, s := range res.sends {
			if s.ms < 0 {
				s.ms = ms(w.elapsed)
			}
			w.sends = append(w.sends, s)
		}
		w.queryMs = append(w.queryMs, res.queryMs...)
		w.segments = append(w.segments, res.segments...)
		for i, n := range res.acked {
			w.acked[i] += n
		}
		w.shed += res.shed
		w.ingestTime += res.ingestTime
	}
	return w
}

// send posts one batch until it is acknowledged, retrying 429 and 503. It
// returns the time from first send to ack, the time spent inside the
// handler, and the number of retried answers.
func (st *ingestStage) send(h http.Handler, b *batchBody, id string, tr *tracer, parent *openSpan, lane int) (time.Duration, time.Duration, int, error) {
	start := time.Now()
	var inside time.Duration
	shed := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b.body))
		req.Header.Set("X-Batch-ID", id)
		rec := httptest.NewRecorder()
		sp := tr.begin(parent, "POST /ingest", "server", id, lane)
		h.ServeHTTP(rec, req)
		inside += sp.end()
		switch rec.Code {
		case http.StatusOK:
			var resp server.IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return 0, inside, shed, fmt.Errorf("batch %s: ack: %w", id, err)
			}
			if resp.Applied != len(b.recs) || resp.Quarantined != 0 || resp.Duplicate {
				return 0, inside, shed, fmt.Errorf("batch %s: ack applied %d of %d records (quarantined %d, duplicate %v)",
					id, resp.Applied, len(b.recs), resp.Quarantined, resp.Duplicate)
			}
			return time.Since(start), inside, shed, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed++
			time.Sleep(time.Millisecond)
		default:
			return 0, inside, shed, fmt.Errorf("batch %s: status %d: %s", id, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	return 0, inside, shed, fmt.Errorf("batch %s: not acknowledged after %d attempts", id, maxAttempts)
}

type queryLine struct {
	Context string `json:"context"`
	Count   uint64 `json:"count"`
	Error   string `json:"error"`
}

// query issues GET /query for the tenant with extra parameters and returns
// its rows; a status other than 200 or an error row is an error.
func (st *ingestStage) query(h http.Handler, tr *tracer, parent *openSpan, lane int, id, params string) (time.Duration, []queryLine, error) {
	req := httptest.NewRequest(http.MethodGet, "/query?tenant="+ingestProgram+params, nil)
	rec := httptest.NewRecorder()
	sp := tr.begin(parent, "GET /query"+params, "server", id, lane)
	h.ServeHTTP(rec, req)
	d := sp.end()
	if rec.Code != http.StatusOK {
		return d, nil, fmt.Errorf("query%s: status %d: %s", params, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var rows []queryLine
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var row queryLine
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return d, nil, fmt.Errorf("query%s: %w", params, err)
		}
		if row.Error != "" {
			return d, nil, fmt.Errorf("query%s: %s", params, row.Error)
		}
		rows = append(rows, row)
	}
	return d, rows, sc.Err()
}

// serverMetrics reads the server's registry through GET /metrics.
func (st *ingestStage) serverMetrics(h http.Handler, tr *tracer, parent *openSpan, lane int) (map[string]float64, error) {
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	sp := tr.begin(parent, "GET /metrics", "server", "", lane)
	h.ServeHTTP(rec, req)
	sp.end()
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

func (st *ingestStage) segmentsNow(h http.Handler, tr *tracer, parent *openSpan, lane int) (float64, error) {
	m, err := st.serverMetrics(h, tr, parent, lane)
	return m[obs.MetricServerSegments], err
}

// ingestSlice is the length of the slices an ingest window is cut into.
// At about 800 acks a second a slice holds some 1,600, so more than ten
// lie beyond its p99.
const ingestSlice = 2 * time.Second

// ingestFigures are the fsync-bound figures of one window: acked records
// per second and the p50 and p99 of send-to-ack latency. The window is cut
// into slices, and each figure is the median over slices of the slice's
// value: a stall of the shared disk or CPU lasting a second or two then
// moves one slice, not the figure. Slow spells of the host lasting minutes
// stretch the fsync waits behind these figures about twice as much as CPU
// time, so only the traced run reports them, as per-layer metrics; the
// untraced run prints them to standard error.
func ingestFigures(w ingestWindow) (recordsPerS, ackP50, ackP99 float64) {
	n := max(1, int(w.elapsed/ingestSlice))
	slice := w.elapsed / time.Duration(n)
	lat := make([][]float64, n)
	records := make([]float64, n)
	for _, s := range w.sends {
		i := min(int(s.at/slice), n-1)
		lat[i] = append(lat[i], s.ms)
		records[i] += float64(s.records)
	}
	var rate, p50, p99 []float64
	for i := range lat {
		rate = append(rate, records[i]/slice.Seconds())
		if len(lat[i]) > 0 {
			p50 = append(p50, percentile(lat[i], 50))
			p99 = append(p99, percentile(lat[i], 99))
		}
	}
	recordsPerS, ackP50, ackP99 = median(rate), median(p50), median(p99)
	fmt.Fprintf(os.Stderr, "perfbench: ingest window %.2fs in %d slices: %d sends, %d queries, %d retried answers; "+
		"%.0f records/s, ack p50 %.3f ms, p99 %.3f ms\n",
		w.elapsed.Seconds(), n, len(w.sends), len(w.queryMs), w.shed, recordsPerS, ackP50, ackP99)
	return recordsPerS, ackP50, ackP99
}

// finish closes the server, restarts it over the same directory and
// checks what it recovered against the client's ledger of acked batches:
// the full /query stream must hold exactly the acked counts per context,
// and /query?top=K must equal the top-K the client computes.
func (st *ingestStage) finish(r *run, acked []int, f fault) {
	r.op(closeServer(st.srv))
	st.srv = nil
	for i, n := range st.warm {
		acked[i] += n
	}
	if f == faultDropAcked {
		for i := range acked {
			if acked[i] > 0 {
				acked[i]--
				break
			}
		}
	}
	want := map[string]uint64{}
	for idx, n := range acked {
		if n == 0 {
			continue
		}
		for _, rec := range st.pool[idx].recs {
			names, err := st.an.DecodeBytes(rec.Key)
			if err != nil {
				r.op(fmt.Errorf("ledger decode: %w", err))
				continue
			}
			want[strings.Join(names, " > ")] += rec.Count * uint64(n)
		}
	}

	srv, err := st.start()
	r.op(err)
	if err != nil {
		return
	}
	defer func() { r.op(closeServer(srv)) }()
	h := srv.Handler()
	_, rows, err := st.query(h, nil, nil, 1, "", "")
	r.op(err)
	if err == nil {
		got := map[string]uint64{}
		for _, row := range rows {
			got[row.Context] += row.Count
		}
		r.op(sameCounts(got, want))
	}
	_, top, err := st.query(h, nil, nil, 1, "", fmt.Sprintf("&top=%d", st.sz.topK))
	if err == nil {
		err = sameTop(top, topK(want, st.sz.topK))
	}
	r.op(err)
}

func sameCounts(got, want map[string]uint64) error {
	var gotTotal, wantTotal uint64
	for _, n := range got {
		gotTotal += n
	}
	for _, n := range want {
		wantTotal += n
	}
	if gotTotal != wantTotal {
		return fmt.Errorf("recovered /query stream sums to %d, acked records sum to %d", gotTotal, wantTotal)
	}
	if len(got) != len(want) {
		return fmt.Errorf("recovered /query stream has %d contexts, acked batches %d", len(got), len(want))
	}
	for ctx, n := range want {
		if got[ctx] != n {
			return fmt.Errorf("context %q: recovered count %d, acked %d", ctx, got[ctx], n)
		}
	}
	return nil
}

// topK orders contexts as /top and /query?top do: count descending, then
// context ascending.
func topK(counts map[string]uint64, k int) []queryLine {
	rows := make([]queryLine, 0, len(counts))
	for ctx, n := range counts {
		rows = append(rows, queryLine{Context: ctx, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Context < rows[j].Context
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

func sameTop(got, want []queryLine) error {
	if len(got) != len(want) {
		return fmt.Errorf("/query top has %d rows, client ledger %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("/query top row %d is %q×%d, client ledger has %q×%d",
				i, got[i].Context, got[i].Count, want[i].Context, want[i].Count)
		}
	}
	return nil
}

// setupTimedIngest sets up the untraced ingest stage setupRepeats times
// and returns the last set-up, its server running, and the median set-up
// time.
func setupTimedIngest(cfg config, r *run) (*ingestStage, float64, error) {
	build := func(rep int) (*ingestStage, error) {
		return setupIngest(r, cfg.sz, cfg.seed, filepath.Join(cfg.out, fmt.Sprintf("ingest-%d", rep)), nil)
	}
	release := func(st *ingestStage) {
		closeServer(st.srv)
		os.RemoveAll(st.dir)
	}
	return measureSetup(build, release)
}
