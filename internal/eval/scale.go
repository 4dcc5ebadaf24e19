package eval

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/verify"
	"deltapath/internal/workload"
)

// ScaleRow is one huge-graph tier of the scalability curve: analysis and
// compile latency, memory budget, and decode throughput at 10⁵–10⁶ nodes,
// plus the proofs the tier demands — the analysis engine's .dpa bytes
// identical between its Par-worker and 1-worker runs, and the verifier
// certifying the result.
type ScaleRow struct {
	Tier    string `json:"tier"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Sites   int    `json:"sites"`
	Anchors int    `json:"anchors"`
	// Levels is the engine's wave count; Par its worker count.
	Levels  int     `json:"levels"`
	Par     int     `json:"par"`
	BuildMs float64 `json:"build_ms"`
	ParMs   float64 `json:"par_ms"` // analysis on Par workers
	// SerialMs is the same analysis on one worker. Baselines recorded
	// before the map engine was retired hold that engine's time here.
	SerialMs  float64 `json:"serial_ms"`
	CompileMs float64 `json:"compile_ms"`
	// VerifyMs is the serial (Workers=1) soundness verification;
	// VerifyParMs the same proof on Par workers. VerifyIdentical proves
	// the parallel verifier's report and certificate byte-identical to the
	// serial one's — the level-parallel analogue of Identical.
	VerifyMs    float64 `json:"verify_ms"`
	VerifyParMs float64 `json:"verify_par_ms"`
	// Identical: SHA-256 of the serialized .dpa from the Par-worker and
	// 1-worker analyses agree.
	Identical       bool `json:"identical"`
	VerifyClean     bool `json:"verify_clean"`
	VerifyIdentical bool `json:"verify_identical"`
	// PeakBytes/BytesPerNode are sampled heap peaks of the Par-worker run
	// (core.AnalysisStats); it goes first so the 1-worker run's state
	// never inflates them.
	PeakBytes    uint64  `json:"peak_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
	MaxIDBits    int     `json:"max_id_bits"`
	Restarts     int     `json:"restarts"`
	// DecodeNs is best-of-repeats mean ns/context over sampled random-walk
	// contexts through the compiled decoder.
	DecodeNs     float64 `json:"decode_ns"`
	DecodeSample int     `json:"decode_sample"`
}

// ScaleCurve measures one row per tier. workers (at least 2) is the
// engine's worker count for the Par run, compared against a 1-worker run;
// sample bounds the decoded contexts per tier (0 → 256).
func ScaleCurve(tiers []workload.HugeParams, workers, sample int) ([]ScaleRow, error) {
	if workers < 2 {
		workers = 2
	}
	if sample <= 0 {
		sample = 256
	}
	rows := make([]ScaleRow, 0, len(tiers))
	for _, p := range tiers {
		row, err := scaleTier(p, workers, sample)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		rows = append(rows, row)
		// Each tier holds multi-GB state at the top end; return it before
		// the next tier starts measuring its own peak.
		runtime.GC()
	}
	return rows, nil
}

func scaleTier(p workload.HugeParams, workers, sample int) (ScaleRow, error) {
	row := ScaleRow{Tier: p.Name}

	start := time.Now()
	g, err := p.Build()
	if err != nil {
		return row, err
	}
	row.BuildMs = msSince(start)
	row.Nodes, row.Edges, row.Sites = g.NumNodes(), g.NumEdges(), g.NumSites()

	// The Par-worker run first, with memory measurement: at this point the
	// heap holds only the graph, so the sampled peak is the analysis's own.
	runtime.GC()
	start = time.Now()
	par, err := core.Encode(g, core.Options{Workers: workers, MeasureMemory: true})
	if err != nil {
		return row, fmt.Errorf("parallel encode: %w", err)
	}
	row.ParMs = msSince(start)
	if st := par.Stats; st != nil {
		row.Levels, row.Par = st.Levels, st.Par
		row.PeakBytes, row.BytesPerNode = st.PeakBytes, st.BytesPerNode
	}
	row.Anchors = len(par.Spec.Anchors)
	row.MaxIDBits = bits.Len64(par.MaxID)
	row.Restarts = par.Restarts

	start = time.Now()
	serial, err := core.Encode(g, core.Options{Workers: 1})
	if err != nil {
		return row, fmt.Errorf("1-worker encode: %w", err)
	}
	row.SerialMs = msSince(start)

	// Byte-identity of the full serialized analysis (spec + SIDs), hashed
	// streaming so neither .dpa is materialized.
	plan := cpt.Compute(g)
	ph, sh := sha256.New(), sha256.New()
	if err := analysisio.Save(ph, par.Spec, plan); err != nil {
		return row, err
	}
	if err := analysisio.Save(sh, serial.Spec, plan); err != nil {
		return row, err
	}
	row.Identical = string(ph.Sum(nil)) == string(sh.Sum(nil))
	serial = nil
	runtime.GC()

	start = time.Now()
	dec := encoding.Compile(par.Spec)
	row.CompileMs = msSince(start)

	start = time.Now()
	rep := verify.Check(par.Spec, plan, verify.Options{})
	row.VerifyMs = msSince(start)
	row.VerifyClean = rep.Clean()

	// Same proof on Par workers: the report (findings, stats, text) and the
	// emitted certificate must match the serial run byte for byte.
	start = time.Now()
	prep := verify.Check(par.Spec, plan, verify.Options{Workers: workers})
	row.VerifyParMs = msSince(start)
	row.VerifyIdentical, err = sameReport(rep, prep)
	if err != nil {
		return row, err
	}

	ns, n, err := scaleDecode(g, par.Spec, dec, p.Seed, sample)
	if err != nil {
		return row, err
	}
	row.DecodeNs, row.DecodeSample = ns, n
	return row, nil
}

// sameReport proves two verification reports interchangeable: identical
// JSON documents (findings, stats, delta block), identical rendered text,
// and structurally equal certificates.
func sameReport(a, b *verify.Report) (bool, error) {
	aj, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	bj, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(aj) == string(bj) &&
		a.Text() == b.Text() &&
		reflect.DeepEqual(a.Certificate, b.Certificate), nil
}

// scaleDecode samples random call paths from the entry, encodes each through
// the reference runtime semantics (encoding.EncodePath), and times their
// decoding through the compiled tables: best-of-2 mean ns/context.
func scaleDecode(g *callgraph.Graph, spec *encoding.Spec, dec *encoding.CompiledDecoder, seed uint64, sample int) (float64, int, error) {
	entry, ok := g.Entry()
	if !ok {
		return 0, 0, fmt.Errorf("graph has no entry")
	}
	rnd := rand.New(rand.NewSource(int64(seed) + 1))
	type rec struct {
		st  *encoding.State
		end callgraph.NodeID
	}
	samples := make([]rec, 0, sample)
	var path []callgraph.Edge
	for i := 0; i < sample; i++ {
		path = path[:0]
		cur := entry
		depth := 8 + rnd.Intn(120)
		for d := 0; d < depth; d++ {
			outs := g.Out(cur)
			if len(outs) == 0 {
				break
			}
			e := outs[rnd.Intn(len(outs))]
			path = append(path, e)
			cur = e.Callee
		}
		st, err := encoding.EncodePath(spec, path)
		if err != nil {
			return 0, 0, fmt.Errorf("sample %d: %w", i, err)
		}
		samples = append(samples, rec{st: st, end: cur})
	}

	var buf []encoding.Frame
	for _, s := range samples {
		var err error
		if buf, err = dec.DecodeInto(buf[:0], s.st, s.end); err != nil {
			return 0, 0, fmt.Errorf("decode: %w", err)
		}
	}
	best := 0.0
	for r := 0; r < 2; r++ {
		start := time.Now()
		for _, s := range samples {
			var err error
			if buf, err = dec.DecodeInto(buf[:0], s.st, s.end); err != nil {
				return 0, 0, err
			}
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(len(samples)); best == 0 || ns < best {
			best = ns
		}
	}
	return best, len(samples), nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
