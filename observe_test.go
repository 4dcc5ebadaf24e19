package deltapath

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"deltapath/internal/obs"
)

// analyzeObserved parses testSrc and returns an analysis with metrics and
// tracing enabled.
func analyzeObserved(t *testing.T) *Analysis {
	t.Helper()
	prog, err := ParseProgram(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an.EnableTracing(256)
	return an
}

func TestMetricsDisabledByDefault(t *testing.T) {
	prog, err := ParseProgram(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	if snap := an.Metrics().Snapshot(); len(snap) != 0 {
		t.Fatalf("metrics off, but snapshot is non-empty: %v", snap)
	}
	if evs := an.TraceEvents(); evs != nil {
		t.Fatalf("tracing off, but events returned: %d", len(evs))
	}
	var buf bytes.Buffer
	if err := an.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("tracing off, but dump wrote %q", buf.String())
	}
}

func TestMetricsCountRuntimeEvents(t *testing.T) {
	an := analyzeObserved(t)
	// Several seeds: the Plug dynamic class's hazardous call paths depend
	// on virtual-dispatch choices, so one seed may not produce a UCP push.
	for seed := uint64(0); seed < 6; seed++ {
		if _, err := an.Run(seed, nil); err != nil {
			t.Fatal(err)
		}
	}
	m := an.Metrics()
	for _, name := range []string{
		obs.MetricVMCalls,
		obs.MetricVMReturns,
		obs.MetricVMEmits,
		obs.MetricEncoderAdditions,
		obs.MetricEncoderSIDSaves,
		obs.MetricEncoderSIDChecks,
		obs.MetricEncoderUCPPushes, // testSrc loads Plug dynamically
		obs.MetricGraphNodes,
		obs.MetricGraphEdges,
		obs.MetricMaxID,
		obs.MetricCPTSets,
	} {
		if m.Value(name) == 0 {
			t.Errorf("%s = 0 after an instrumented run", name)
		}
	}
	if calls, returns := m.Value(obs.MetricVMCalls), m.Value(obs.MetricVMReturns); calls != returns {
		t.Errorf("calls (%d) != returns (%d) on a fault-free run", calls, returns)
	}
}

func TestMetricsSharedAcrossSessions(t *testing.T) {
	an := analyzeObserved(t)
	if _, err := an.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	first := an.Metrics().Value(obs.MetricVMCalls)
	if _, err := an.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	second := an.Metrics().Value(obs.MetricVMCalls)
	if second <= first {
		t.Fatalf("second run did not aggregate into the registry: %d then %d", first, second)
	}
}

func TestMetricsExportShapes(t *testing.T) {
	an := analyzeObserved(t)
	if _, err := an.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := an.Metrics().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if _, ok := doc[obs.MetricVMCalls]; !ok {
		t.Errorf("JSON export is missing %s", obs.MetricVMCalls)
	}
	var promBuf bytes.Buffer
	if err := an.Metrics().WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	prom := promBuf.String()
	if !strings.Contains(prom, "# TYPE "+obs.MetricVMCalls+" counter") {
		t.Errorf("Prometheus export is missing the %s TYPE line", obs.MetricVMCalls)
	}
	if !strings.Contains(prom, obs.MetricEncoderPieceDepth+"_bucket{le=") {
		t.Errorf("Prometheus export is missing piece-depth histogram buckets")
	}
}

func TestTraceRecordsEncodingEvents(t *testing.T) {
	an := analyzeObserved(t)
	if _, err := an.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	events := an.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	kinds := make(map[string]int)
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && events[i-1].Seq >= ev.Seq {
			t.Fatalf("events out of order: seq %d then %d", events[i-1].Seq, ev.Seq)
		}
	}
	for _, want := range []string{"call", "return", "emit"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in trace (kinds seen: %v)", want, kinds)
		}
	}
	var buf bytes.Buffer
	if err := an.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(events) {
		t.Errorf("dump has %d lines, Events returned %d", got, len(events))
	}
}

func TestProfileMetrics(t *testing.T) {
	an := analyzeObserved(t)
	p, err := an.RunParallel([]uint64{1, 2, 3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := an.Metrics()
	if m.Value(obs.MetricProfileInterns) == 0 {
		t.Error("no interns counted after RunParallel")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := an.DecodeProfile(bytes.NewReader(buf.Bytes()), 2); err != nil {
		t.Fatal(err)
	}
	if m.Value(obs.MetricProfileDecodeMemoMiss) == 0 {
		t.Error("no decode memo misses counted after DecodeProfile")
	}
	if m.Value(obs.MetricDecodeMemoHits) == 0 {
		t.Error("decoder table lookups not counted during profile decode")
	}
	// A territory row built at decode time is published, so decoding the
	// same profile again finds every row it needs and builds none.
	misses := m.Value(obs.MetricDecodeMemoMisses)
	if _, err := an.DecodeProfile(bytes.NewReader(buf.Bytes()), 2); err != nil {
		t.Fatal(err)
	}
	if got := m.Value(obs.MetricDecodeMemoMisses); got != misses {
		t.Errorf("second DecodeProfile of the same profile built %d territory rows", got-misses)
	}
}
