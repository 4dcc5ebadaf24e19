package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory; they are written once, at the end of a
// traced run, as Chrome trace-event JSON. A nil *tracer records nothing, so
// the untraced arms share the traced arms' code.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one closed interval around a call into a layer.
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Layer  string
	Req    string // request ID; the batch ID for ingest requests
	Lane   int    // trace lane (goroutine issuing the work)
	Start  time.Duration
	End    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (nil for a root). On a nil tracer it
// returns nil and the later end still measures the duration.
func (t *tracer) begin(parent *openSpan, name, layer, req string, lane int) *openSpan {
	o := &openSpan{tr: t, start: time.Now()}
	if t == nil {
		return o
	}
	o.s = span{ID: t.next.Add(1), Name: name, Layer: layer, Req: req, Lane: lane, Start: o.start.Sub(t.t0)}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.tr != nil {
		o.s.End = now.Sub(o.tr.t0)
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, o.s)
		o.tr.mu.Unlock()
	}
	return d
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req != "" {
			args["request"] = s.Req
		}
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer  string
	Spans  int
	SelfMs float64
}

// selfTimes attributes each span's self time — its duration minus the part
// of it that its children cover — to the span's layer.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := map[string]*layerTime{}
	for _, s := range spans {
		covered := coveredBy(s, children[s.ID])
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		lt.Spans++
		lt.SelfMs += float64((s.End - s.Start - covered).Nanoseconds()) / 1e6
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent's. Children of one parent may overlap when several
// goroutines work under it.
func coveredBy(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// writeTrace writes the trace file and the self-time table beside it, and
// prints the table to standard error.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := selfTimes(spans)
	tf, err := os.Create(path + ".selftime.txt")
	if err != nil {
		return err
	}
	for _, w := range []io.Writer{tf, os.Stderr} {
		fmt.Fprintf(w, "%-14s %8s %12s\n", "layer", "spans", "self_ms")
		for _, lt := range table {
			fmt.Fprintf(w, "%-14s %8d %12.3f\n", lt.Layer, lt.Spans, lt.SelfMs)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return tf.Close()
}
