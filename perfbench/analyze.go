package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"deltapath"
	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/verify"
	"deltapath/internal/workload"
)

// analyze: the offline cost a tool pays before its first instrumented run.
// Suite programs go from .mv text through Analyze, verification and a .dpa
// round trip; one generated graph above core's 32k-node engine switch goes
// through the analysis layers directly.

type analyzeStage struct {
	sz    sizes
	seed  uint64
	names []string
	texts []string         // .mv sources rendered in set-up
	huge  *callgraph.Graph // generated graph above the engine switch

	// Products of the last round, one per suite program (nil where the
	// pipeline failed): heap_mib sees them, and the checks decode through
	// them.
	analyses []*deltapath.Analysis
	decoders []*deltapath.OfflineDecoder
	hugeRes  *core.Result
	hugeDPA  *analysisio.Bundle
}

func setupAnalyze(sz sizes, seed uint64) (*analyzeStage, error) {
	st := &analyzeStage{sz: sz, seed: seed}
	for _, name := range sz.analyzePrograms {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no suite program %q", name)
		}
		prog, err := p.Generate()
		if err != nil {
			return nil, err
		}
		st.names = append(st.names, name)
		st.texts = append(st.texts, prog.String())
	}
	g, err := workload.HugeSmoke(sz.hugeNodes).Build()
	if err != nil {
		return nil, err
	}
	st.huge = g
	return st, nil
}

// analyzeRound is one round's timings; layers is filled on traced rounds.
type analyzeRound struct {
	suiteS, hugeS float64
	layers        map[string]float64
}

// round runs the suite pipeline and the huge-graph pipeline once each.
// With a tracer it also calls Analyze's layers one by one, in the order
// Analyze does, to reconcile them against the Analyze call.
func (st *analyzeStage) round(rnd int, r *run, tr *tracer, f fault) analyzeRound {
	out := analyzeRound{}
	if tr != nil {
		out.layers = map[string]float64{}
	}
	st.analyses = make([]*deltapath.Analysis, len(st.texts))
	st.decoders = make([]*deltapath.OfflineDecoder, len(st.texts))
	root := tr.begin(nil, fmt.Sprintf("analyze round %d", rnd), "bench", "", 1)
	for i, text := range st.texts {
		runtime.GC()
		tamper := i == 0 && f == faultTamperDPA
		var elapsed time.Duration
		st.analyses[i], st.decoders[i], elapsed = st.suiteProgram(i, text, r, tr, root, tamper, out.layers)
		out.suiteS += elapsed.Seconds()
	}
	if tr != nil {
		for _, text := range st.texts {
			st.reconcile(text, r, tr, root, out.layers)
		}
	}
	runtime.GC()
	out.hugeS = st.hugePipeline(r, tr, root, out.layers).Seconds()
	root.end()
	return out
}

// suiteProgram runs ParseProgram → Analyze → VerifyEncoding → SaveAnalysis
// → LoadDecoder + CheckAnalysis for one program. tamper flips one bit of
// the first site addition value in the saved analysis before it is loaded.
func (st *analyzeStage) suiteProgram(i int, text string, r *run, tr *tracer, parent *openSpan, tamper bool,
	layers map[string]float64) (*deltapath.Analysis, *deltapath.OfflineDecoder, time.Duration) {
	name := st.names[i]
	start := time.Now()
	fail := func(err error) (*deltapath.Analysis, *deltapath.OfflineDecoder, time.Duration) {
		r.op(fmt.Errorf("%s: %w", name, err))
		return nil, nil, time.Since(start)
	}
	sp := tr.begin(parent, "ParseProgram "+name, "lang", "", 1)
	prog, err := deltapath.ParseProgram(text)
	parse := sp.end()
	if err != nil {
		return fail(err)
	}
	sp = tr.begin(parent, "Analyze "+name, "deltapath", "", 1)
	a, err := deltapath.Analyze(prog, deltapath.Options{})
	analyze := sp.end()
	if err != nil {
		return fail(err)
	}
	alloc := allocated()
	sp = tr.begin(parent, "VerifyEncoding "+name, "verify", "", 1)
	err = a.VerifyEncoding()
	verifyD := sp.end()
	verifyAlloc := allocated() - alloc
	if err != nil {
		return fail(err)
	}
	var buf bytes.Buffer
	sp = tr.begin(parent, "SaveAnalysis "+name, "analysisio", "", 1)
	err = a.SaveAnalysis(&buf)
	save := sp.end()
	if err != nil {
		return fail(err)
	}
	dpa := buf.Bytes()
	if tamper {
		off, err := siteAVOffset(dpa)
		if err != nil {
			return fail(err)
		}
		dpa[off] ^= 0x01
	}
	sp = tr.begin(parent, "LoadDecoder+CheckAnalysis "+name, "analysisio", "", 1)
	d, err := deltapath.LoadDecoder(bytes.NewReader(dpa))
	if err == nil {
		err = d.CheckAnalysis(a)
	}
	load := sp.end()
	if err != nil {
		return fail(err)
	}
	r.op(nil)
	if layers != nil {
		layers["lang.parse_ms"] += ms(parse)
		layers["verify.check_ms"] += ms(verifyD)
		layers["verify.alloc_mib"] += verifyAlloc / (1 << 20)
		layers["analysisio.save_ms"] += ms(save)
		layers["analysisio.load_ms"] += ms(load)
		layers["analysisio.dpa_kib"] += float64(len(dpa)) / 1024
		layers["core.anchors"] += float64(len(a.Anchors()))
		layers["suite_common_ms"] += ms(parse + analyze + verifyD + save + load)
	}
	return a, d, time.Since(start)
}

// reconcile times an untraced Analyze call and then calls Analyze's layers
// one by one, in Analyze's order and with its settings (encoding-all,
// unreachable methods kept, CPT on), so their spans can be set against the
// Analyze call's time. Each side parses the program afresh after a forced
// collection, as the suite pipeline does.
func (st *analyzeStage) reconcile(text string, r *run, tr *tracer, parent *openSpan, layers map[string]float64) {
	parse := func() (*deltapath.Program, error) {
		runtime.GC()
		return deltapath.ParseProgram(text)
	}
	prog, err := parse()
	if err == nil {
		start := time.Now()
		_, err = deltapath.Analyze(prog, deltapath.Options{})
		layers["analyze_untraced_ms"] += ms(time.Since(start))
	}
	if err == nil {
		prog, err = parse()
	}
	if err != nil {
		r.op(err)
		return
	}
	sp := tr.begin(parent, "cha.Build", "cha", "", 1)
	build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true})
	chaD := sp.end()
	if err != nil {
		r.op(err)
		return
	}
	alloc := allocated()
	sp = tr.begin(parent, "core.Encode", "core", "", 1)
	res, err := core.Encode(build.Graph, core.Options{})
	encode := sp.end()
	coreAlloc := allocated() - alloc
	if err != nil {
		r.op(err)
		return
	}
	sp = tr.begin(parent, "cpt.Compute", "cpt", "", 1)
	plan := cpt.Compute(build.Graph)
	cptD := sp.end()
	sp = tr.begin(parent, "instrument.NewPlan", "instrument", "", 1)
	_, err = instrument.NewPlan(build, res.Spec, plan)
	planD := sp.end()
	if err != nil {
		r.op(err)
		return
	}
	sp = tr.begin(parent, "encoding.Compile", "encoding", "", 1)
	dec := encoding.Compile(res.Spec)
	compile := sp.end()
	runtime.KeepAlive(dec)
	r.op(nil)
	layers["cha.build_ms"] += ms(chaD)
	layers["core.encode_ms"] += ms(encode)
	layers["core.alloc_mib"] += coreAlloc / (1 << 20)
	layers["cpt.compute_ms"] += ms(cptD)
	layers["instrument.plan_ms"] += ms(planD)
	layers["encoding.compile_ms"] += ms(compile)
	layers["layers_sum_ms"] += ms(chaD + encode + cptD + planD + compile)
}

// hugePipeline runs core.Encode → cpt.Compute → encoding.Compile →
// verify.Check → analysisio.Save/Load on the huge graph.
func (st *analyzeStage) hugePipeline(r *run, tr *tracer, parent *openSpan, layers map[string]float64) time.Duration {
	start := time.Now()
	alloc := allocated()
	sp := tr.begin(parent, "core.Encode huge", "core", "", 1)
	res, err := core.Encode(st.huge, core.Options{})
	encode := sp.end()
	coreAlloc := allocated() - alloc
	if err != nil {
		r.op(fmt.Errorf("huge graph: %w", err))
		return time.Since(start)
	}
	sp = tr.begin(parent, "cpt.Compute huge", "cpt", "", 1)
	plan := cpt.Compute(st.huge)
	cptD := sp.end()
	sp = tr.begin(parent, "encoding.Compile huge", "encoding", "", 1)
	dec := encoding.Compile(res.Spec)
	compile := sp.end()
	runtime.KeepAlive(dec)
	sp = tr.begin(parent, "verify.Check huge", "verify", "", 1)
	rep := verify.Check(res.Spec, plan, verify.Options{})
	verifyD := sp.end()
	if !rep.Clean() {
		r.op(fmt.Errorf("huge graph: verifier findings:\n%s", strings.TrimSpace(rep.Text())))
	}
	var buf bytes.Buffer
	sp = tr.begin(parent, "analysisio.Save huge", "analysisio", "", 1)
	err = analysisio.Save(&buf, res.Spec, plan)
	save := sp.end()
	if err != nil {
		r.op(fmt.Errorf("huge graph: save: %w", err))
		return time.Since(start)
	}
	dpaKiB := float64(buf.Len()) / 1024
	sp = tr.begin(parent, "analysisio.Load huge", "analysisio", "", 1)
	bundle, err := analysisio.Load(&buf)
	load := sp.end()
	elapsed := time.Since(start)
	r.op(err)
	st.hugeRes, st.hugeDPA = res, bundle
	if layers != nil {
		layers["core.encode_huge_ms"] += ms(encode)
		layers["core.alloc_huge_mib"] += coreAlloc / (1 << 20)
		layers["core.anchors_huge"] += float64(len(res.OverflowAnchors))
		layers["cpt.compute_huge_ms"] += ms(cptD)
		layers["encoding.compile_huge_ms"] += ms(compile)
		layers["verify.check_huge_ms"] += ms(verifyD)
		layers["analysisio.save_huge_ms"] += ms(save)
		layers["analysisio.load_huge_ms"] += ms(load)
		layers["analysisio.dpa_huge_kib"] += dpaKiB
		layers["huge_common_ms"] += ms(encode + cptD + compile + verifyD + save + load)
	}
	return elapsed
}

// checkHuge decodes a seeded sample of random-walk paths, encoded with the
// reference runtime semantics (encoding.EncodePath), through a decoder
// compiled from the reloaded .dpa, and compares each with its path.
func (st *analyzeStage) checkHuge(r *run) {
	if st.hugeRes == nil || st.hugeDPA == nil {
		r.op(fmt.Errorf("huge graph: no reloaded analysis to check"))
		return
	}
	g := st.huge
	entry, ok := g.Entry()
	if !ok {
		r.op(fmt.Errorf("huge graph: no entry"))
		return
	}
	dec := encoding.Compile(st.hugeDPA.Spec)
	rnd := rand.New(rand.NewSource(int64(mix(st.seed, 7))))
	var path []callgraph.Edge
	for i := 0; i < st.sz.walkSamples; i++ {
		path = path[:0]
		cur := entry
		want := []string{g.Name(entry)}
		for d, depth := 0, 8+rnd.Intn(120); d < depth; d++ {
			outs := g.Out(cur)
			if len(outs) == 0 {
				break
			}
			e := outs[rnd.Intn(len(outs))]
			path = append(path, e)
			cur = e.Callee
			want = append(want, g.Name(cur))
		}
		st0, err := encoding.EncodePath(st.hugeRes.Spec, path)
		if err == nil {
			var names []string
			if names, err = dec.DecodeNames(st0, cur); err == nil {
				if got, w := strings.Join(names, " > "), strings.Join(want, " > "); got != w {
					err = fmt.Errorf("decoded\n  %s\nwalked\n  %s", got, w)
				}
			}
		}
		if err != nil {
			err = fmt.Errorf("huge graph: walk %d: %w", i, err)
		}
		r.op(err)
	}
}

// checkDecoders is the untimed check of each suite program's reloaded
// .dpa: every distinct context of a seeded run must decode through the
// reloaded OfflineDecoder to what the live Analysis decodes it to. A
// corrupted addition value, push kind, anchor or SID set shows here even
// where the graph digest that LoadDecoder and CheckAnalysis compare does
// not cover it.
func (st *analyzeStage) checkDecoders(r *run) {
	for i, a := range st.analyses {
		d := st.decoders[i]
		if a == nil || d == nil {
			continue // the pipeline already failed and was counted
		}
		name := st.names[i]
		seen := map[string]bool{}
		var recs []string
		s, err := a.NewSession(mix(st.seed, 300+uint64(i)))
		if err == nil {
			_, err = s.Run(func(c deltapath.Context) {
				if rec, err := c.MarshalBinary(); err == nil && !seen[string(rec)] {
					seen[string(rec)] = true
					recs = append(recs, string(rec))
				}
			})
		}
		if err != nil {
			r.op(fmt.Errorf("%s: seeded run: %w", name, err))
			continue
		}
		sort.Strings(recs)
		for _, rec := range recs {
			want, err := a.DecodeBytes([]byte(rec))
			if err == nil {
				var got []string
				if got, err = d.DecodeBytes([]byte(rec)); err == nil && !slices.Equal(got, want) {
					err = fmt.Errorf("reloaded analysis decodes a record to\n  %s\nthe live one to\n  %s",
						strings.Join(got, " > "), strings.Join(want, " > "))
				}
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
			r.op(err)
		}
	}
}

// siteAVOffset is the offset, in a saved analysis, of the first byte of its
// first site addition value. It walks the layout analysisio writes: the
// five-byte header, the graph digest, the epoch (present only for a
// nonzero epoch, which LoadDecoder reports), nodes, entry, context roots
// and edges, then the Spec's per-edge flag, site count and the first
// site's caller and label.
func siteAVOffset(dpa []byte) (int, error) {
	d, err := deltapath.LoadDecoder(bytes.NewReader(dpa))
	if err != nil {
		return 0, err
	}
	off := 5
	var bad error
	uv := func() uint64 {
		v, n := binary.Uvarint(dpa[min(off, len(dpa)):])
		if n <= 0 && bad == nil {
			bad = fmt.Errorf("analysis file: bad varint at byte %d", off)
		}
		off += max(n, 1)
		return v
	}
	digest := 3
	if d.Epoch() > 0 {
		digest++ // the epoch
	}
	for k := 0; k < digest; k++ {
		uv()
	}
	for n := uv(); n > 0 && bad == nil; n-- {
		off += int(uv()) + 1 // name, library flag
	}
	uv() // entry
	for n := uv(); n > 0 && bad == nil; n-- {
		uv()
	}
	for n := 3 * uv(); n > 0 && bad == nil; n-- {
		uv()
	}
	off++ // per-edge flag
	if uv() == 0 && bad == nil {
		bad = fmt.Errorf("analysis file: no site addition values")
	}
	uv() // caller
	uv() // label
	if bad == nil && off >= len(dpa) {
		bad = fmt.Errorf("analysis file: truncated")
	}
	return off, bad
}

// setupTimedAnalyze sets the untraced analyze stage up setupRepeats times
// and returns the last set-up and the median set-up time.
func setupTimedAnalyze(cfg config) (*analyzeStage, float64, error) {
	return measureSetup(func(int) (*analyzeStage, error) { return setupAnalyze(cfg.sz, cfg.seed) },
		func(*analyzeStage) {})
}

// dropProducts lets a round's analyses, decoders and huge-graph results go.
func (st *analyzeStage) dropProducts() {
	st.analyses, st.decoders, st.hugeRes, st.hugeDPA = nil, nil, nil, nil
}

// allocated reports the bytes allocated so far (runtime TotalAlloc).
func allocated() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
