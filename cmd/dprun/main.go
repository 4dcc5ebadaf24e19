// Command dprun executes a minivm program under DeltaPath encoding and
// prints, for every emit point, the captured encoding and its decoded
// calling context — demonstrating the precise, instant decoding that is the
// paper's headline capability.
//
// Usage:
//
//	dprun [-app] [-seed N] [-unique] [-record log.bin] [-save a.dpa]
//	      [-extend Cls,...] [-profile out.dpp] [-runs N]
//	      [-chaos] [-chaos-rate P] program.mv
//
// With -unique, each distinct context is printed once with its occurrence
// count (a minimal context-sensitive profile), most frequent first and equal
// counts in context order. With -record, binary context
// records (4-byte little-endian length + record) are written to the given
// file for offline decoding with dpdecode — the event-logging workflow.
//
// With -profile, the program is executed -runs times concurrently (seeds
// seed..seed+runs-1), every emitted context is interned into a sharded
// store, and the aggregate streams to the given .dpp file — decode it with
// "dpdecode -profile". Combined with -chaos, every run injects faults and
// self-heals, and the counts of all runs merge into one profile.
//
// With -push URL, the aggregated profile is pushed to a dprofiled server
// instead of (or in addition to) being written to a file: records are
// chunked into idempotent batches of -push-batch and delivered with
// retry/backoff, surviving server restarts and backpressure sheds. The
// server routes the push by the profile's graph digest, so the matching
// analysis must be registered there (dprofiled -analysis).
//
// With -extend, the named dynamic classes are absorbed into the analysis
// before the run (Analysis.Extend — the incremental late-loading path):
// each absorption publishes a new verified epoch, the run executes against
// the final epoch hazard-free, and -save/-profile stamp their outputs with
// it so offline decoding routes to the matching snapshot.
//
// With -chaos, the run injects seeded probe faults (dropped events, bit
// flips, stack truncation, unknown call sites; -seed drives the fault
// stream) and heals via the stack-walk resync protocol; the health counters
// — corruptions detected, resyncs, dropped events, partial decodes — are
// reported at the end. Every printed context is exact despite the faults.
//
// With -metrics, the runtime observability registry is enabled and dumped
// to stderr when the run finishes: encoder additions, anchor pushes/pops,
// CPT hazard pushes, decode cache hits, and so on (-metrics-format selects
// json or prom; see DESIGN.md §11 for the metric table). With -trace, the
// most recent probe/encoder events (ring capacity -trace-cap) are dumped to
// stderr as one "seq=… kind=… site=… ctx=…" line each — the post-mortem
// view of what the encoder last did.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"

	"deltapath"
	"deltapath/internal/server/agentclient"
)

func main() {
	app := flag.Bool("app", false, "encoding-application setting (exclude library classes)")
	seed := flag.Uint64("seed", 1, "virtual-dispatch seed")
	unique := flag.Bool("unique", false, "aggregate identical contexts with counts")
	record := flag.String("record", "", "write binary context records to this file instead of decoding")
	save := flag.String("save", "", "persist the analysis to this file (pairs with -record; decode later via dpdecode -analysis)")
	extend := flag.String("extend", "", "comma-separated dynamic classes to absorb (Analysis.Extend) before running; each publishes a new epoch")
	profileOut := flag.String("profile", "", "aggregate contexts into a sharded store and stream the profile to this .dpp file")
	push := flag.String("push", "", "push the aggregated profile to a dprofiled server at this base URL (implies profile collection; pairs with -profile to also keep the file)")
	pushBatch := flag.Int("push-batch", 512, "with -push: records per ingest batch")
	runs := flag.Int("runs", 1, "with -profile: number of concurrent runs to merge (seeds seed..seed+runs-1)")
	chaosOn := flag.Bool("chaos", false, "inject seeded probe faults and heal via stack-walk resync")
	chaosRate := flag.Float64("chaos-rate", 0.002, "per-probe-event fault probability under -chaos")
	metricsOn := flag.Bool("metrics", false, "enable the observability registry and dump it to stderr at exit")
	metricsFormat := flag.String("metrics-format", "prom", "metrics dump format: prom or json")
	traceOn := flag.Bool("trace", false, "enable the event tracer and dump the ring to stderr at exit (implies -metrics)")
	traceCap := flag.Int("trace-cap", 0, "trace ring capacity (rounded up to a power of two; 0 = default 4096)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dprun [-app] [-seed N] [-unique] [-profile out.dpp] [-runs N] [-chaos] [-chaos-rate P] program.mv")
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "dprun: -runs must be >= 1")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := deltapath.ParseProgram(string(src))
	if err != nil {
		fatal(err)
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{ApplicationOnly: *app})
	if err != nil {
		fatal(err)
	}
	switch *metricsFormat {
	case "prom", "json":
	default:
		fmt.Fprintln(os.Stderr, "dprun: -metrics-format must be prom or json")
		os.Exit(2)
	}
	if *metricsOn {
		an.EnableMetrics()
	}
	if *extend != "" {
		for _, class := range strings.Split(*extend, ",") {
			class = strings.TrimSpace(class)
			stats, err := an.Extend(class)
			if err != nil {
				fatal(fmt.Errorf("-extend %s: %w", class, err))
			}
			fmt.Fprintf(os.Stderr, "extended: epoch %d absorbs %s (%d/%d nodes dirty, %d anchors recomputed)\n",
				stats.Epoch, strings.Join(stats.NewClasses, ","),
				stats.Core.DirtyNodes, stats.Core.TotalNodes, stats.Core.RecomputedAnchors)
		}
	}
	if *traceOn {
		an.EnableTracing(*traceCap)
	}
	// dumpObs writes the metrics and/or trace to stderr; registered here so
	// every exit path below (decode loop, -record, -profile) reports.
	dumpObs := func() {
		if *metricsOn {
			var err error
			if *metricsFormat == "json" {
				err = an.Metrics().WriteJSON(os.Stderr)
			} else {
				err = an.Metrics().WritePrometheus(os.Stderr)
			}
			if err != nil {
				fatal(err)
			}
		}
		if *traceOn {
			if err := an.WriteTrace(os.Stderr); err != nil {
				fatal(err)
			}
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := an.SaveAnalysis(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("analysis saved to %s\n", *save)
	}

	defer dumpObs()

	if *profileOut != "" || *push != "" {
		runProfile(an, *profileOut, *push, *pushBatch, *seed, *runs, *chaosOn, *chaosRate)
		return
	}

	var journal *os.File
	if *record != "" {
		journal, err = os.Create(*record)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
	}
	sess, err := an.NewSession(*seed)
	if err != nil {
		fatal(err)
	}
	if *chaosOn {
		sess.EnableChaos(deltapath.ChaosOptions{Seed: *seed, Rate: *chaosRate})
	}

	counts := make(map[string]int)
	// texts holds each distinct context decoded at its first occurrence:
	// a retained Context would keep a chunk of the session's capture slab
	// reachable.
	texts := make(map[string]string)
	recorded, skipped := 0, 0
	_, err = sess.Run(func(c deltapath.Context) {
		if journal != nil {
			rec, rerr := c.MarshalBinary()
			if rerr != nil {
				skipped++ // emit inside unanalysed code: not encodable
				return
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
			if _, werr := journal.Write(hdr[:]); werr != nil {
				fatal(werr)
			}
			if _, werr := journal.Write(rec); werr != nil {
				fatal(werr)
			}
			recorded++
			return
		}
		key := c.Key()
		counts[key]++
		if *unique {
			if _, seen := texts[key]; !seen {
				if names, derr := an.Decode(c); derr != nil {
					texts[key] = fmt.Sprintf("<undecodable: %v>", derr)
				} else {
					texts[key] = strings.Join(names, " > ")
				}
			}
			return
		}
		names, derr := an.Decode(c)
		if derr != nil {
			fmt.Printf("[%s] %s: <undecodable: %v>\n", c.Tag, c.At, derr)
			return
		}
		fmt.Printf("[%s] id=%d pieces=%d  %s\n", c.Tag, c.ID(), c.StackDepth(), strings.Join(names, " > "))
	})
	if err != nil {
		fatal(err)
	}
	if *chaosOn {
		h := sess.Health()
		fmt.Printf("chaos: %d probe events, %d faults injected (%d events dropped)\n",
			h.ProbeEvents, h.FaultsInjected, h.DroppedEvents)
		fmt.Printf("health: %d corruptions detected, %d resyncs, %d partial decodes\n",
			h.CorruptionsDetected, h.Resyncs, h.PartialDecodes)
	}
	if journal != nil {
		fmt.Printf("recorded %d contexts to %s (%d unanalysed emits skipped)\n", recorded, *record, skipped)
		return
	}

	if *unique {
		rows := make([]uniqueRow, 0, len(texts))
		for k, text := range texts {
			rows = append(rows, uniqueRow{count: counts[k], text: text})
		}
		sortUniqueRows(rows)
		for _, r := range rows {
			fmt.Printf("%8d  %s\n", r.count, r.text)
		}
		fmt.Printf("%d unique contexts, %d total\n", len(texts), total(counts))
	}
}

// uniqueRow is one line of -unique output: a distinct context's occurrence
// count and its decoded rendering.
type uniqueRow struct {
	count int
	text  string
}

// sortUniqueRows orders rows as profile.Report.Top does: count descending,
// then decoded context ascending, so equal counts print in a fixed order.
func sortUniqueRows(rows []uniqueRow) {
	slices.SortFunc(rows, func(a, b uniqueRow) int {
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		return strings.Compare(a.text, b.text)
	})
}

// runProfile is the -profile/-push path: runs concurrent sessions
// aggregating into one sharded store, then streams the .dpp profile to
// out and/or pushes it to a dprofiled server.
func runProfile(an *deltapath.Analysis, out, push string, pushBatch int, seed uint64, runs int, chaosOn bool, chaosRate float64) {
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	prof := an.NewProfile(0)
	var configure func(uint64, *deltapath.Session)
	var mu sync.Mutex
	var sessions []*deltapath.Session
	if chaosOn {
		configure = func(seed uint64, s *deltapath.Session) {
			s.EnableChaos(deltapath.ChaosOptions{Seed: seed, Rate: chaosRate})
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
		}
	}
	if err := prof.Collect(seeds, configure, nil); err != nil {
		fatal(err)
	}
	if chaosOn {
		var h deltapath.Health
		for _, s := range sessions {
			sh := s.Health()
			h.ProbeEvents += sh.ProbeEvents
			h.FaultsInjected += sh.FaultsInjected
			h.DroppedEvents += sh.DroppedEvents
			h.CorruptionsDetected += sh.CorruptionsDetected
			h.Resyncs += sh.Resyncs
			h.PartialDecodes += sh.PartialDecodes
		}
		fmt.Printf("chaos: %d runs, %d probe events, %d faults injected (%d events dropped)\n",
			runs, h.ProbeEvents, h.FaultsInjected, h.DroppedEvents)
		fmt.Printf("health: %d corruptions detected, %d resyncs, %d partial decodes\n",
			h.CorruptionsDetected, h.Resyncs, h.PartialDecodes)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := prof.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("profile: %d unique contexts, %d samples over %d runs (%d unanalysed emits skipped) -> %s\n",
			prof.Unique(), prof.Total(), runs, prof.Skipped(), out)
	}
	if push != "" {
		var buf bytes.Buffer
		if err := prof.Save(&buf); err != nil {
			fatal(err)
		}
		client, err := agentclient.New(agentclient.Config{
			URL:          push,
			BatchRecords: pushBatch,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "dprun: push: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		stats, err := client.Push(context.Background(), buf.Bytes())
		if err != nil {
			fatal(fmt.Errorf("push: %w (after %d acked batches)", err, stats.Batches))
		}
		fmt.Printf("push: %d batches acked (%d records, %d duplicates) to %s, %d retries (%d sheds)\n",
			stats.Batches, stats.Records, stats.Duplicates, push, stats.Retries, stats.Shed429)
	}
}

func total(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprun:", err)
	os.Exit(1)
}
