package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deltapath"
	"deltapath/internal/workload"
)

// tinyConfig runs workload w at the tests' size, with its artefacts under
// the test's temporary directory.
func tinyConfig(t *testing.T, w string, f fault, trace bool) config {
	t.Helper()
	return config{
		workload: w,
		seed:     3,
		window:   400 * time.Millisecond,
		trace:    trace,
		out:      t.TempDir(),
		sz:       tinySizes(),
		fault:    f,
	}
}

func runTiny(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// TestChecksPassClean runs every workload at a tiny size and expects every
// check to pass and every end-to-end metric to be reported, non-zero.
func TestChecksPassClean(t *testing.T) {
	want := []string{"setup_s", "heap_mib", "slowdown", "steps_per_s", "contexts_per_s", "analyze_s",
		"analyze_huge_s", "query_p50_ms"}
	for _, w := range workloads {
		res := runTiny(t, tinyConfig(t, w, noFault, false))
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d: %v", w, len(res.Metrics), len(want), res.Metrics)
		}
		for _, name := range want {
			if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v)", w, name, m, ok)
			}
		}
	}
}

// TestSeededFaultsFail shows each stage's check catching one seeded
// defect: a flipped record byte before the decode check, a tampered .dpa
// byte before reload, and an acked batch dropped from the ledger. The
// ingest stage runs last in every workload.
func TestSeededFaultsFail(t *testing.T) {
	for _, c := range []struct {
		workload string
		fault    fault
	}{
		{wProfile, faultFlipRecord},
		{wAnalyze, faultTamperDPA},
		{wProfile, faultDropAcked},
	} {
		res := runTiny(t, tinyConfig(t, c.workload, c.fault, false))
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: seeded fault went unnoticed (correct=%v failed=%d)", c.workload, res.Correct, res.Failed)
		}
	}
}

// TestTracedRun checks that a traced run reports the per-layer metrics and
// writes the trace file and its self-time table.
func TestTracedRun(t *testing.T) {
	cfg := tinyConfig(t, wAnalyze, noFault, true)
	res := runTiny(t, cfg)
	if !res.Correct {
		t.Fatalf("traced run failed its checks: failed=%d", res.Failed)
	}
	for _, name := range []string{"minivm.native_ms", "minivm.calls", "instrument.additions", "profile.allocs_per_emit",
		"encoding.decode_ns", "core.encode_huge_ms", "deltapath.analyze_unaccounted_pct", "server.ingest_ms",
		"server.batches_per_fsync", "server.query_ms", "server.records_per_s", "server.ack_p99_ms", "trace.overhead_pct"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if _, ok := res.Metrics["setup_s"]; ok {
		t.Errorf("traced run reports end-to-end metric setup_s")
	}
	matches, err := filepath.Glob(filepath.Join(cfg.out, "trace-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("trace files: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil || !strings.Contains(string(data), `"traceEvents"`) {
		t.Fatalf("trace file: %v", err)
	}
	if _, err := os.Stat(matches[0] + ".selftime.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Layer: "bench", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Layer: "server", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "b", Layer: "server", Start: 4 * ms, End: 6 * ms},
		{ID: 4, Parent: 3, Name: "c", Layer: "profile", Start: 4 * ms, End: 5 * ms},
	}
	got := map[string]float64{}
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt.SelfMs
	}
	want := map[string]float64{"bench": 5, "server": 5, "profile": 1}
	for layer, v := range want {
		if got[layer] != v {
			t.Errorf("self time of %s = %v ms, want %v", layer, got[layer], v)
		}
	}
}

// TestTamperedSpecLoads shows why the analyze check decodes through the
// reloaded analysis: the seeded fault flips a site addition value, which
// the graph digest does not cover, so the file still loads and passes
// CheckAnalysis.
func TestTamperedSpecLoads(t *testing.T) {
	p, ok := workload.ByName("crypto.rsa")
	if !ok {
		t.Fatal("no crypto.rsa")
	}
	prog, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a, err := deltapath.Analyze(prog, deltapath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveAnalysis(&buf); err != nil {
		t.Fatal(err)
	}
	dpa := buf.Bytes()
	off, err := siteAVOffset(dpa)
	if err != nil {
		t.Fatal(err)
	}
	dpa[off] ^= 0x01
	d, err := deltapath.LoadDecoder(bytes.NewReader(dpa))
	if err != nil {
		t.Fatalf("tampered analysis does not load: %v", err)
	}
	if err := d.CheckAnalysis(a); err != nil {
		t.Fatalf("tampered analysis fails CheckAnalysis: %v", err)
	}
}
