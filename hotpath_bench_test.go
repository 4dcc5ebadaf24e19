// BenchmarkEncodeHotPath is the regression gate for the per-event cost of
// the runtime encoder — the constant-time work the paper's instrumentation
// performs at every call site and method entry/exit.
//
// It records the exact probe-event stream of one instrumented run (call
// sites, dispatch targets, entries, exits — as the dense ids the VM
// resolved through the plan), then replays that stream directly against a
// fresh encoder, so the measurement is the encoder's hot path alone: no
// interpreter dispatch, no workload arithmetic. CI and
// `make bench-smoke` compare the ns/event metric against the baseline in
// results/ (see EXPERIMENTS.md "Bench-smoke regression gate").
package deltapath

import (
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/workload"
)

// probeEvent is one recorded instrumentation event, with the ids the VM
// passed. Matching pairs (BeforeCall/AfterCall, Enter/Exit) are properly
// nested in the stream, so a replay threads tokens through a single stack.
type probeEvent struct {
	kind   uint8 // 0 BeforeCall, 1 AfterCall, 2 Enter, 3 Exit, 4 BeginTask
	site   int32
	target int32
	m      int32 // the method id; for BeginTask, the index of its entry in tasks
}

// eventStream is one recorded run: its probe events and the entries of the
// executor tasks it began, in order.
type eventStream struct {
	events []probeEvent
	tasks  []minivm.MethodRef
}

// probeRecorder wraps an encoder, forwarding the id resolution and every
// event, task starts included, and appending each event to the stream.
type probeRecorder struct {
	enc    *instrument.Encoder
	stream eventStream
}

var _ minivm.TaskProbes = (*probeRecorder)(nil)

func (r *probeRecorder) ResolveMethod(m minivm.MethodRef) int32 { return r.enc.ResolveMethod(m) }
func (r *probeRecorder) ResolveSite(s minivm.SiteRef) int32     { return r.enc.ResolveSite(s) }

func (r *probeRecorder) record(ev probeEvent) { r.stream.events = append(r.stream.events, ev) }

func (r *probeRecorder) BeginTask(entry minivm.MethodRef) {
	r.record(probeEvent{kind: 4, m: int32(len(r.stream.tasks))})
	r.stream.tasks = append(r.stream.tasks, entry)
	r.enc.BeginTask(entry)
}

func (r *probeRecorder) BeforeCall(site, target int32) uint8 {
	r.record(probeEvent{kind: 0, site: site, target: target})
	return r.enc.BeforeCall(site, target)
}

func (r *probeRecorder) AfterCall(site, target int32, token uint8) {
	r.record(probeEvent{kind: 1, site: site, target: target})
	r.enc.AfterCall(site, target, token)
}

func (r *probeRecorder) Enter(m int32) uint8 {
	r.record(probeEvent{kind: 2, m: m})
	return r.enc.Enter(m)
}

func (r *probeRecorder) Exit(m int32, token uint8) {
	r.record(probeEvent{kind: 3, m: m})
	r.enc.Exit(m, token)
}

// instrumentedSession analyses one workload under full instrumentation
// (CPT on) and returns the encoder plan plus a function that runs the
// program once on a fresh VM with the given probes.
func instrumentedSession(tb testing.TB, name string, scale float64) (*instrument.Plan, func(minivm.Probes)) {
	tb.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("missing benchmark %s", name)
	}
	prog, err := p.Scale(scale).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		tb.Fatal(err)
	}
	run := func(probes minivm.Probes) {
		vm, err := minivm.NewVM(prog, p.Seed)
		if err != nil {
			tb.Fatal(err)
		}
		vm.SetProbes(probes)
		vm.SetInstrumented(plan.InstrumentedMethods())
		if err := vm.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	return plan, run
}

// recordEventStream runs one workload under full instrumentation and
// returns the encoder plan plus the recorded probe-event stream.
func recordEventStream(tb testing.TB, name string, scale float64) (*instrument.Plan, eventStream) {
	tb.Helper()
	plan, run := instrumentedSession(tb, name, scale)
	rec := &probeRecorder{enc: instrument.NewEncoder(plan)}
	run(rec)
	if len(rec.stream.events) == 0 {
		tb.Fatal("recorded no probe events")
	}
	return plan, rec.stream
}

// replayStream drives the recorded stream through enc once, threading
// tokens through a nesting stack exactly as the interpreter would.
func replayStream(enc *instrument.Encoder, s eventStream, tokens []uint8) []uint8 {
	tokens = tokens[:0]
	for i := range s.events {
		ev := &s.events[i]
		switch ev.kind {
		case 0:
			tokens = append(tokens, enc.BeforeCall(ev.site, ev.target))
		case 2:
			tokens = append(tokens, enc.Enter(ev.m))
		case 1:
			enc.AfterCall(ev.site, ev.target, tokens[len(tokens)-1])
			tokens = tokens[:len(tokens)-1]
		case 3:
			enc.Exit(ev.m, tokens[len(tokens)-1])
			tokens = tokens[:len(tokens)-1]
		case 4:
			enc.BeginTask(s.tasks[ev.m])
		}
	}
	return tokens
}

// TestEventReplayMatchesSession: a replay drives the encoder as the
// session it recorded does, task starts included. Its hazard pushes equal
// those of an encoder set directly as the VM's probes — 4 on compress at
// scale 0.02, where the two executor tasks' first entries find the
// expectation BeginTask sets.
func TestEventReplayMatchesSession(t *testing.T) {
	plan, run := instrumentedSession(t, "compress", 0.02)
	rec := &probeRecorder{enc: instrument.NewEncoder(plan)}
	run(rec)
	replayed := instrument.NewEncoder(plan)
	replayStream(replayed, rec.stream, nil)

	direct := instrument.NewEncoder(plan)
	run(direct)
	if direct.Hazards == 0 {
		t.Fatal("the session pushes no hazard; the comparison tests nothing")
	}
	if replayed.Hazards != direct.Hazards {
		t.Fatalf("replay pushed %d hazards, the session %d", replayed.Hazards, direct.Hazards)
	}
}

// BenchmarkEncodeHotPath measures the encoder's per-probe-event cost with
// the default (disabled) observability sink. One iteration replays the
// whole recorded stream; the ns/event metric divides by the stream length.
func BenchmarkEncodeHotPath(b *testing.B) {
	plan, stream := recordEventStream(b, "compress", 0.02)
	enc := instrument.NewEncoder(plan)
	tokens := make([]uint8, 0, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		tokens = replayStream(enc, stream, tokens)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(stream.events))), "ns/event")
	if enc.MaxID == 0 && enc.MaxStackDepth == 0 {
		b.Fatal("replay did not exercise the encoder")
	}
}
