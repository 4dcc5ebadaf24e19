package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"deltapath/internal/obs"
)

// executeTraced is the traced run. Each stage runs a fixed amount of work
// twice: untraced, and with spans around every call into a layer plus the
// program's own counters (Analysis.EnableMetrics, the server's registry
// read through /metrics). The difference in the time of the operations
// both arms share is the tracing overhead.
func executeTraced(cfg config, r *run) error {
	tr := newTracer()
	ov := &overhead{}
	for _, w := range stageOrder(cfg.workload) {
		var err error
		switch w {
		case wProfile:
			err = tracedProfile(cfg, r, tr, ov)
		case wAnalyze:
			err = tracedAnalyze(cfg, r, tr, ov)
		case wIngest:
			err = tracedIngest(cfg, r, tr, ov)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		debug.FreeOSMemory()
	}
	r.set("trace.overhead_ms", ov.traced-ov.untraced, "ms")
	r.set("trace.overhead_pct", 100*(ov.traced-ov.untraced)/ov.untraced, "%")
	path, err := filepath.Abs(filepath.Join(filepath.Dir(cfg.out), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	return writeTrace(path, tr.snapshot())
}

// overhead sums the milliseconds of the operations both arms run.
type overhead struct{ untraced, traced float64 }

// medianLayer is the median over rounds of one per-layer value.
func medianLayer(rounds []map[string]float64, key string) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, l := range rounds {
		xs = append(xs, l[key])
	}
	return median(xs)
}

func tracedProfile(cfg config, r *run, tr *tracer, ov *overhead) error {
	plain, err := setupProfile(cfg.sz, cfg.seed, false)
	if err != nil {
		return err
	}
	counted, err := setupProfile(cfg.sz, cfg.seed, true)
	if err != nil {
		return err
	}
	var layers []map[string]float64
	for rnd := 0; rnd < cfg.sz.tracedRounds; rnd++ {
		ref := plain.round(rnd, r, nil)
		trc := counted.round(rnd, r, tr)
		ov.untraced += 1e3 * ref.commonS
		ov.traced += 1e3 * trc.commonS
		layers = append(layers, trc.layers)
	}
	plain.checkContexts(r, cfg.fault)
	for _, name := range []string{"minivm.native_ms", "instrument.encode_ms", "profile.add_ms", "profile.save_ms", "profile.decode_ms"} {
		r.set(name, medianLayer(layers, name), "ms")
	}
	for _, name := range []string{"minivm.steps", "minivm.calls", "instrument.additions", "instrument.anchor_pushes",
		"instrument.ucp_hazard_pushes", "instrument.sid_checks", "profile.emits", "profile.unique"} {
		r.set(name, layers[0][name], "count")
	}
	var allocs, decodeNs []float64
	for _, l := range layers {
		allocs = append(allocs, l["mallocs"]/l["profile.emits"])
		decodeNs = append(decodeNs, l["decode_ns_total"]/l["profile.unique"])
	}
	r.set("profile.allocs_per_emit", median(allocs), "count")
	r.set("encoding.decode_ns", median(decodeNs), "ns")
	return nil
}

func tracedAnalyze(cfg config, r *run, tr *tracer, ov *overhead) error {
	st, err := setupAnalyze(cfg.sz, cfg.seed)
	if err != nil {
		return err
	}
	// One round each: an analyze round already takes seconds.
	ref := st.round(0, r, nil, cfg.fault)
	trc := st.round(0, r, tr, cfg.fault)
	l := trc.layers
	ov.untraced += 1e3 * (ref.suiteS + ref.hugeS)
	ov.traced += l["suite_common_ms"] + l["huge_common_ms"]
	st.checkDecoders(r)
	st.checkHuge(r)
	for _, name := range []string{"lang.parse_ms", "cha.build_ms", "instrument.plan_ms",
		"core.encode_ms", "cpt.compute_ms", "encoding.compile_ms", "verify.check_ms", "analysisio.save_ms", "analysisio.load_ms",
		"core.encode_huge_ms", "cpt.compute_huge_ms", "encoding.compile_huge_ms", "verify.check_huge_ms",
		"analysisio.save_huge_ms", "analysisio.load_huge_ms"} {
		r.set(name, l[name], "ms")
	}
	for _, name := range []string{"core.alloc_mib", "core.alloc_huge_mib", "verify.alloc_mib"} {
		r.set(name, l[name], "MiB")
	}
	r.set("core.anchors", l["core.anchors"], "count")
	r.set("core.anchors_huge", l["core.anchors_huge"], "count")
	r.set("analysisio.dpa_kib", l["analysisio.dpa_kib"], "KiB")
	r.set("analysisio.dpa_huge_kib", l["analysisio.dpa_huge_kib"], "KiB")
	r.set("deltapath.analyze_unaccounted_pct", 100*(l["analyze_untraced_ms"]-l["layers_sum_ms"])/l["analyze_untraced_ms"], "%")
	return nil
}

func tracedIngest(cfg config, r *run, tr *tracer, ov *overhead) error {
	plain, err := setupIngest(r, cfg.sz, cfg.seed, filepath.Join(cfg.out, "ingest-untraced"), nil)
	if err != nil {
		return err
	}
	ref := plain.window(r, nil, 0, cfg.sz.ingestBatches)
	plain.finish(r, ref.acked, cfg.fault)
	if err := os.RemoveAll(plain.dir); err != nil {
		return err
	}

	st, err := setupIngest(r, cfg.sz, cfg.seed, filepath.Join(cfg.out, "ingest-traced"), obs.NewRegistry())
	if err != nil {
		return err
	}
	w := st.window(r, tr, 0, cfg.sz.ingestBatches)
	m, err := st.serverMetrics(st.srv.Handler(), tr, nil, 1)
	r.op(err)
	st.finish(r, w.acked, noFault)
	ov.untraced += ms(ref.elapsed)
	ov.traced += ms(w.elapsed)

	rate, p50, p99 := ingestFigures(ref)
	r.set("server.records_per_s", rate, "1/s")
	r.set("server.ack_p50_ms", p50, "ms")
	r.set("server.ack_p99_ms", p99, "ms")
	r.set("server.ingest_ms", ms(w.ingestTime), "ms")
	r.set("server.commit_wait_ms", m[obs.MetricServerCommitWaitNs+"_sum"]/1e6, "ms")
	batchesPerFsync := 0.0
	if f := m[obs.MetricServerGroupFsyncs]; f > 0 {
		batchesPerFsync = m[obs.MetricServerBatches] / f
	}
	r.set("server.batches_per_fsync", batchesPerFsync, "ratio")
	r.set("server.flushes", m[obs.MetricServerSnapshots], "count")
	r.set("server.shed", float64(w.shed), "count")
	r.set("server.compactions", m[obs.MetricServerCompactions], "count")
	r.set("server.compact_ms", m[obs.MetricServerCompactNs]/1e6, "ms")
	r.set("server.compacted_pairs", m[obs.MetricServerCompactedPairs], "count")
	r.set("server.segments_at_query", median(w.segments), "count")
	r.set("server.query_ms", median(w.queryMs), "ms")
	return os.RemoveAll(st.dir)
}
