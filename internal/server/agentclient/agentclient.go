// Package agentclient is the agent-side half of the dprofiled ingest
// protocol: it pushes .dpp profile streams to a server in bounded batches,
// riding out transient failure instead of losing samples.
//
// Reliability model:
//
//   - Every batch carries a client-generated batch ID (a random push ID
//     plus the batch index) in X-Batch-ID. The ID is stable across
//     retries, so a batch whose acknowledgement was lost — a crashed
//     server, a dropped connection — is re-sent under the same identity
//     and absorbed idempotently by the server's applied-batch set.
//     Exactly-once delivery without coordination.
//
//   - 429 (backpressure shed) and 503 (draining or transient failure)
//     are retryable; the client honors Retry-After when present and
//     otherwise backs off exponentially with jitter, so a fleet of
//     agents shedding together does not re-converge into a thundering
//     herd. Connection errors (the server is restarting) retry the same
//     way. Any other 4xx is permanent — a malformed or misrouted batch
//     will not become well-formed by resending.
package agentclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/http"
	"strconv"
	"time"

	"deltapath/internal/analysisio"
	"deltapath/internal/profile"
)

// Config configures a Client. Zero values select the defaults.
type Config struct {
	// URL is the server base URL (e.g. http://127.0.0.1:7077). Required.
	URL string
	// BatchRecords bounds one batch (default 512 records).
	BatchRecords int
	// MaxAttempts bounds sends of one batch, first try included
	// (default 10).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 50ms); each
	// retry doubles it up to MaxBackoff (default 5s), then a uniform
	// jitter in [0.5, 1.5) is applied.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HTTPClient overrides the transport (default: 30s-timeout client).
	HTTPClient *http.Client
	// Logf receives per-retry diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// Stats accumulates what one or more Push calls actually did.
type Stats struct {
	Batches    int // batches acknowledged (duplicates included)
	Records    int // records in acknowledged batches
	Applied    int // records the server newly applied
	Duplicates int // batches the server had already applied
	Retries    int // re-sends (shed, draining, or connection failure)
	Shed429    int // retries caused specifically by backpressure sheds
}

func (s *Stats) add(o Stats) {
	s.Batches += o.Batches
	s.Records += o.Records
	s.Applied += o.Applied
	s.Duplicates += o.Duplicates
	s.Retries += o.Retries
	s.Shed429 += o.Shed429
}

// Client pushes profiles to one dprofiled server. Safe for use from one
// goroutine; create one Client per pushing goroutine.
type Client struct {
	cfg  Config
	http *http.Client
	rng  *mathrand.Rand
}

// New returns a client for cfg.
func New(cfg Config) (*Client, error) {
	if cfg.URL == "" {
		return nil, errors.New("agentclient: Config.URL is required")
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 512
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var seed [8]byte
	rand.Read(seed[:])
	var s int64
	for _, b := range seed {
		s = s<<8 | int64(b)
	}
	return &Client{cfg: cfg, http: cfg.HTTPClient, rng: mathrand.New(mathrand.NewSource(s))}, nil
}

// pushID returns a fresh random identity for one Push call's batches.
func pushID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Push parses a .dpp stream and pushes its records to the server in
// batches. It returns the stats of every acknowledged batch; on error the
// stats still count the batches that did land.
func (c *Client) Push(ctx context.Context, dpp []byte) (Stats, error) {
	pr, err := profile.NewReader(bytes.NewReader(dpp))
	if err != nil {
		return Stats{}, fmt.Errorf("agentclient: %w", err)
	}
	var recs []profile.Record
	for {
		rec, count, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, fmt.Errorf("agentclient: %w", err)
		}
		recs = append(recs, profile.Record{Key: rec, Count: count})
	}
	return c.PushRecords(ctx, pr.Digest(), recs)
}

// PushRecords pushes records under the given analysis digest, chunked into
// batches of at most BatchRecords each. Batches are sent in order; the
// first permanent failure stops the push.
func (c *Client) PushRecords(ctx context.Context, digest analysisio.GraphDigest, recs []profile.Record) (Stats, error) {
	id, err := pushID()
	if err != nil {
		return Stats{}, fmt.Errorf("agentclient: %w", err)
	}
	var stats Stats
	for i := 0; len(recs) > 0; i++ {
		n := min(c.cfg.BatchRecords, len(recs))
		chunk := recs[:n]
		recs = recs[n:]
		batchStats, err := c.sendBatch(ctx, digest, chunk, fmt.Sprintf("%s-%d", id, i))
		stats.add(batchStats)
		if err != nil {
			return stats, fmt.Errorf("agentclient: batch %d: %w", i, err)
		}
	}
	return stats, nil
}

// sendBatch frames one batch as a .dpp body and sends it until
// acknowledged, retrying transient failures under the same batch ID.
func (c *Client) sendBatch(ctx context.Context, digest analysisio.GraphDigest, recs []profile.Record, batchID string) (Stats, error) {
	var body bytes.Buffer
	w, err := profile.NewWriter(&body, digest)
	if err != nil {
		return Stats{}, err
	}
	for _, r := range recs {
		if err := w.Add(r.Key, r.Count); err != nil {
			return Stats{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return Stats{}, err
	}

	var stats Stats
	for attempt := 1; ; attempt++ {
		reply, status, err := c.post(ctx, body.Bytes(), batchID)
		switch {
		case err == nil && status == http.StatusOK:
			stats.Batches++
			stats.Records += len(recs)
			if reply.Duplicate {
				stats.Duplicates++
			} else {
				stats.Applied += reply.Applied
			}
			return stats, nil
		case err == nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable:
			// Permanent: resending an unroutable or malformed batch
			// cannot succeed.
			return stats, fmt.Errorf("server rejected batch (%d): %s", status, reply.Error)
		}
		if attempt >= c.cfg.MaxAttempts {
			if err != nil {
				return stats, fmt.Errorf("gave up after %d attempts: %w", attempt, err)
			}
			return stats, fmt.Errorf("gave up after %d attempts (last status %d)", attempt, status)
		}
		stats.Retries++
		if status == http.StatusTooManyRequests {
			stats.Shed429++
		}
		delay := c.backoff(attempt, reply.RetryAfter)
		c.cfg.Logf("batch %s attempt %d: status %d err %v, retrying in %v",
			batchID, attempt, status, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return stats, ctx.Err()
		}
	}
}

// reply is the server's ingest response, plus transport-level fields.
type reply struct {
	Applied    int    `json:"applied"`
	Duplicate  bool   `json:"duplicate"`
	Error      string `json:"error"`
	RetryAfter time.Duration
}

func (c *Client) post(ctx context.Context, body []byte, batchID string) (reply, int, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", c.cfg.URL+"/ingest", bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	req.Header.Set("X-Batch-ID", batchID)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, 0, err
	}
	defer resp.Body.Close()
	var r reply
	// Best effort: non-JSON error bodies leave r zeroed, which is fine.
	json.NewDecoder(resp.Body).Decode(&r)
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			r.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return r, resp.StatusCode, nil
}

// backoff is exponential in attempt with uniform ±50% jitter, floored at
// the server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d = time.Duration(float64(d) * (0.5 + c.rng.Float64()))
	if retryAfter > 0 && d < retryAfter {
		d = retryAfter
	}
	return d
}
