// Command dprofiled is the fault-tolerant multi-tenant profile ingestion
// daemon: it accepts streaming .dpp pushes from many concurrent agents
// (dprun -push, or anything speaking the ingest protocol), aggregates them
// into per-analysis stores, and survives crashes, overload, and corrupt
// input without losing an acknowledged record.
//
// Usage:
//
//	dprofiled -data DIR -analysis name=app.dpa [-analysis other=lib.dpa]
//	          [-addr 127.0.0.1:7077] [-queue-depth N] [-wal-max-bytes N]
//	          [-memtable-max-bytes N] [-compact-min-segments N]
//	          [-no-group-commit] [-pprof-addr ADDR]
//	          [-drain-timeout D] [-retry-after SECS] [-max-body N]
//
// Each -analysis flag registers one tenant: a name for queries and a
// persisted .dpa analysis whose graph digest routes ingest. Durable state
// lives under DIR/<name>/ (WAL + segment manifest) and is recovered on
// start; state recorded under a different analysis is refused, never
// silently replayed. A directory from before the segment layout (a DPS1
// snapshot.dps and no manifest) is refused at start: that format is no
// longer read.
//
// Endpoints:
//
//	POST /ingest                      .dpp batch in, JSON ack out
//	                                  (429 + Retry-After under overload,
//	                                  503 while draining)
//	GET  /top?tenant=N&n=K            hottest K decoded contexts, with
//	                                  the store's totals (a workers=
//	                                  parameter is accepted and ignored)
//	GET  /decode?tenant=N&record=HEX  decode one context record
//	GET  /profile?tenant=N            aggregate streamed back as .dpp
//	GET  /query?tenant=N[&top=K][&class=C]  decoded rows as NDJSON,
//	                                  streamed with O(segments) memory
//	GET  /healthz                     per-tenant counters, JSON
//	GET  /metrics                     Prometheus text (dp_server_*)
//
// Each tenant keeps an intern table from record key to display context,
// filled at ingest and capped at 32 MiB of keys and strings: /top and
// /query?top= sum counts by context id and render only the rows they
// return.
//
// -pprof-addr starts net/http/pprof on a separate listener (off by
// default; keep it on a loopback or otherwise private address).
//
// SIGINT/SIGTERM shut down gracefully: intake is refused, queued batches
// drain under -drain-timeout, and every tenant flushes its final segment.
// SIGKILL is survivable by design — that is what the WAL is for.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"deltapath/internal/obs"
	"deltapath/internal/server"
)

// analysisFlags collects repeated -analysis name=path pairs.
type analysisFlags []struct{ name, path string }

func (a *analysisFlags) String() string {
	var parts []string
	for _, t := range *a {
		parts = append(parts, t.name+"="+t.path)
	}
	return strings.Join(parts, ",")
}

func (a *analysisFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*a = append(*a, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var analyses analysisFlags
	addr := flag.String("addr", "127.0.0.1:7077", "listen address (use :0 for an ephemeral port)")
	data := flag.String("data", "", "durable state directory (required)")
	flag.Var(&analyses, "analysis", "tenant as name=path.dpa (repeatable, at least one)")
	queueDepth := flag.Int("queue-depth", 64, "per-tenant ingest queue bound in batches")
	walMax := flag.Int64("wal-max-bytes", 1<<20, "WAL size that triggers memtable flush + truncate")
	memMax := flag.Int64("memtable-max-bytes", 4<<20, "memtable size that triggers a segment flush")
	compactMin := flag.Int("compact-min-segments", 4, "live segment count that triggers compaction")
	noGroupCommit := flag.Bool("no-group-commit", false, "fsync every batch individually (benchmark baseline)")
	pprofAddr := flag.String("pprof-addr", "", "serve /debug/pprof on this address (empty = off)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds advertised on 429/503")
	maxBody := flag.Int64("max-body", 32<<20, "largest accepted ingest body in bytes")
	flag.Parse()
	if *data == "" || len(analyses) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dprofiled -data DIR -analysis name=path.dpa [...]")
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dprofiled: "+format+"\n", args...)
	}
	s, err := server.New(server.Config{
		DataDir:            *data,
		QueueDepth:         *queueDepth,
		WALMaxBytes:        *walMax,
		MemtableMaxBytes:   *memMax,
		CompactMinSegments: *compactMin,
		NoGroupCommit:      *noGroupCommit,
		RetryAfterSeconds:  *retryAfter,
		MaxBodyBytes:       *maxBody,
		Registry:           obs.NewRegistry(),
		Logf:               logf,
	})
	if err != nil {
		fatal(err)
	}
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serve that mux on
		// its own listener so profiling stays off the ingest address.
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		logf("pprof listening on %s", pl.Addr())
		go http.Serve(pl, nil)
	}
	for _, a := range analyses {
		f, err := os.Open(a.path)
		if err != nil {
			fatal(err)
		}
		health, err := s.AddTenant(a.name, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dprofiled: tenant %s (%s): %d records recovered, %d replayed from WAL\n",
			a.name, health.Digest, health.Records, health.Replayed)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The soak harness and scripts parse this line to find an ephemeral
	// port; keep its shape stable.
	fmt.Printf("dprofiled: listening on %s\n", l.Addr())

	httpServer := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logf("caught %v, draining (budget %v)", sig, *drain)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		logf("drain: %v", err)
	}
	if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	logf("stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprofiled:", err)
	os.Exit(1)
}
