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
// plus the proofs the tier demands — the .dpa bytes of two independent
// analyses identical, and the verifier certifying the result.
type ScaleRow struct {
	Tier    string `json:"tier"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Sites   int    `json:"sites"`
	Anchors int    `json:"anchors"`
	// Par is the verifier's worker count for VerifyParMs. (Baselines
	// recorded before the analysis engine went serial hold its pool size,
	// which was the same number.)
	Par      int     `json:"par"`
	BuildMs  float64 `json:"build_ms"`
	EncodeMs float64 `json:"encode_ms"`
	// CompileMs is encoding.Compile's time on the analysed spec.
	CompileMs float64 `json:"compile_ms"`
	// VerifyMs is the serial (Workers=1) soundness verification;
	// VerifyParMs the same proof on Par workers. VerifyIdentical proves
	// the parallel verifier's report and certificate byte-identical to the
	// serial one's.
	VerifyMs    float64 `json:"verify_ms"`
	VerifyParMs float64 `json:"verify_par_ms"`
	// Identical: SHA-256 of the serialized .dpa from two independent
	// analyses of the tier agree.
	Identical       bool `json:"identical"`
	VerifyClean     bool `json:"verify_clean"`
	VerifyIdentical bool `json:"verify_identical"`
	// PeakBytes/BytesPerNode are sampled heap peaks of the first analysis
	// (core.AnalysisStats); it goes first so the second analysis's state
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
// verifier's worker count for the Par proof, compared against a 1-worker
// proof; sample bounds the decoded contexts per tier (0 → 256).
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

	// The measured analysis first, with memory measurement: at this point
	// the heap holds only the graph, so the sampled peak is the analysis's
	// own.
	runtime.GC()
	start = time.Now()
	res, err := core.Encode(g, core.Options{MeasureMemory: true})
	if err != nil {
		return row, fmt.Errorf("encode: %w", err)
	}
	row.EncodeMs = msSince(start)
	if st := res.Stats; st != nil {
		row.PeakBytes, row.BytesPerNode = st.PeakBytes, st.BytesPerNode
	}
	row.Par = workers
	row.Anchors = len(res.Spec.Anchors)
	row.MaxIDBits = bits.Len64(res.MaxID)
	row.Restarts = res.Restarts

	again, err := core.Encode(g, core.Options{})
	if err != nil {
		return row, fmt.Errorf("second encode: %w", err)
	}

	// Byte-identity of the full serialized analysis (spec + SIDs), hashed
	// streaming so neither .dpa is materialized.
	plan := cpt.Compute(g)
	h1, h2 := sha256.New(), sha256.New()
	if err := analysisio.Save(h1, res.Spec, plan); err != nil {
		return row, err
	}
	if err := analysisio.Save(h2, again.Spec, plan); err != nil {
		return row, err
	}
	row.Identical = string(h1.Sum(nil)) == string(h2.Sum(nil))
	runtime.GC()

	start = time.Now()
	dec := encoding.Compile(res.Spec)
	row.CompileMs = msSince(start)

	start = time.Now()
	rep := verify.Check(res.Spec, plan, verify.Options{})
	row.VerifyMs = msSince(start)
	row.VerifyClean = rep.Clean()

	// Same proof on Par workers: the report (findings, stats, text) and the
	// emitted certificate must match the serial run byte for byte.
	start = time.Now()
	prep := verify.Check(res.Spec, plan, verify.Options{Workers: workers})
	row.VerifyParMs = msSince(start)
	row.VerifyIdentical, err = sameReport(rep, prep)
	if err != nil {
		return row, err
	}

	ns, n, err := scaleDecode(g, res.Spec, dec, p.Seed, sample)
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
