// Package hybrid implements the hybrid encoding sketched in Section 8
// (Future Work): profiling identifies the program's hot "trunk" — the
// functions appearing in the most frequent calling contexts — and the two
// encodings split the work:
//
//   - inside the trunk, PCC runs: one hash update per call, no static
//     analysis, and a profile-trained table maps each observed trunk hash
//     back to its exact frame sequence (hot contexts are few, so the table
//     is small and collisions are checked at training time);
//   - outside the trunk, DeltaPath runs, with the trunk excluded from its
//     call graph exactly as a library component would be (Section 4.2) —
//     call path tracking bridges the boundary, so the DeltaPath pieces are
//     precise from the first non-trunk frame down.
//
// Decoding composes the two: the DeltaPath decoder produces the non-trunk
// frames with gaps where trunk code ran, and the trained table resolves the
// gap from the captured PCC value. Contexts whose trunk prefix was never
// seen in training decode with an explicit gap rather than a wrong answer —
// the same honesty DeltaPath's UCP handling provides.
package hybrid

import (
	"fmt"
	"strings"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/pcc"
	"deltapath/internal/stackwalk"
)

// Options configures Build.
type Options struct {
	// HotContexts is how many of the most frequent training contexts
	// define the trunk (default 16).
	HotContexts int
	// TrainSeeds are the dispatch seeds of the training runs.
	TrainSeeds []uint64
}

// Analysis is a trained hybrid encoding.
type Analysis struct {
	prog  *minivm.Program
	build *cha.Result
	plan  *instrument.Plan
	dec   *encoding.CompiledDecoder

	// trunk is the set of trunk methods (excluded from DeltaPath).
	trunk map[minivm.MethodRef]bool
	// trunkCtx maps (V, query method) to the full context for emits
	// inside trunk methods — the paper's "mapping between frequently
	// generated calling contexts and their PCC encoding values".
	trunkCtx map[vmKey][]minivm.MethodRef
	// prefixes maps (V, boundary method) to the trunk prefix that ran
	// before the DeltaPath piece rooted at boundary.
	prefixes map[vmKey][]minivm.MethodRef
	// pccBuild carries the site constants for the whole program (the
	// trunk PCC instrumentation).
	pccBuild *cha.Result
}

// vmKey keys the trained tables: a PCC value together with the program
// point it was observed at.
type vmKey struct {
	v uint64
	m minivm.MethodRef
}

// Build profiles the program, derives the trunk, and prepares the split
// instrumentation.
func Build(prog *minivm.Program, opts Options) (*Analysis, error) {
	if opts.HotContexts == 0 {
		opts.HotContexts = 16
	}
	if len(opts.TrainSeeds) == 0 {
		opts.TrainSeeds = []uint64{1, 2, 3}
	}

	// Full-graph build for profiling and PCC site constants.
	full, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		return nil, err
	}

	// Training: count context frequencies with ground-truth stacks and
	// record the PCC value of each trunk prefix as it will appear at
	// runtime. (Training uses stack walking; production never does.)
	type ctxStat struct {
		frames []minivm.MethodRef
		count  int
	}
	counts := make(map[string]*ctxStat)
	for _, seed := range opts.TrainSeeds {
		vm, err := minivm.NewVM(prog, seed)
		if err != nil {
			return nil, err
		}
		walker := &stackwalk.Walker{}
		vm.OnEmit = func(v *minivm.VM, _ minivm.MethodRef, _ string) {
			ctx := walker.Capture(v)
			key := stackwalk.Key(ctx)
			if s, ok := counts[key]; ok {
				s.count++
				return
			}
			counts[key] = &ctxStat{frames: append([]minivm.MethodRef(nil), ctx...), count: 1}
		}
		if err := vm.Run(); err != nil {
			return nil, err
		}
	}
	hot := make([]*ctxStat, 0, len(counts))
	for _, s := range counts {
		hot = append(hot, s)
	}
	for i := 0; i < len(hot); i++ { // selection of top-K by count
		for j := i + 1; j < len(hot); j++ {
			if hot[j].count > hot[i].count ||
				(hot[j].count == hot[i].count && stackwalk.Key(hot[j].frames) < stackwalk.Key(hot[i].frames)) {
				hot[i], hot[j] = hot[j], hot[i]
			}
		}
	}
	if len(hot) > opts.HotContexts {
		hot = hot[:opts.HotContexts]
	}
	trunk := make(map[minivm.MethodRef]bool)
	for _, s := range hot {
		for _, f := range s.frames {
			if f != prog.Entry {
				trunk[f] = true
			}
		}
	}
	if len(trunk) == 0 {
		return nil, fmt.Errorf("hybrid: training found no trunk (no hot contexts?)")
	}

	// DeltaPath over the non-trunk remainder: the trunk is excluded like
	// a library component; CPT bridges the boundary.
	build, err := cha.Build(prog, cha.Options{
		KeepUnreachable: true,
		ExcludeMethods:  trunk,
	})
	if err != nil {
		return nil, err
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		return nil, err
	}
	plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		prog:     prog,
		build:    build,
		plan:     plan,
		dec:      encoding.Compile(res.Spec),
		trunk:    trunk,
		trunkCtx: make(map[vmKey][]minivm.MethodRef),
		prefixes: make(map[vmKey][]minivm.MethodRef),
		pccBuild: full,
	}

	// Second training pass: run the production instrumentation and learn
	// the two tables — (V, emit point) -> full context for trunk emits,
	// and (V, boundary) -> trunk prefix for contexts crossing into the
	// DeltaPath region. Collisions would make decoding unreliable;
	// training detects and reports them.
	for _, seed := range opts.TrainSeeds {
		enc := a.NewEncoder()
		vm, err := minivm.NewVM(prog, seed)
		if err != nil {
			return nil, err
		}
		vm.SetProbes(enc)
		vm.SetInstrumented(a.instrumentedMethods())
		walker := &stackwalk.Walker{}
		var trainErr error
		record := func(tbl map[vmKey][]minivm.MethodRef, key vmKey, frames []minivm.MethodRef) {
			if old, ok := tbl[key]; ok {
				if stackwalk.Key(old) != stackwalk.Key(frames) {
					trainErr = fmt.Errorf("hybrid: PCC collision at %v: %v vs %v", key.m, old, frames)
				}
				return
			}
			tbl[key] = append([]minivm.MethodRef(nil), frames...)
		}
		vm.OnEmit = func(v *minivm.VM, m minivm.MethodRef, _ string) {
			if trainErr != nil {
				return
			}
			ctx := walker.Capture(v)
			v0 := enc.PCCValue()
			if _, inDP := a.build.NodeOf[m]; !inDP {
				record(a.trunkCtx, vmKey{v0, m}, ctx)
				return
			}
			// Find the last trunk->DeltaPath boundary: the prefix is
			// everything before the first DeltaPath frame that follows a
			// trunk frame... contexts may interleave; the DeltaPath piece
			// stack already handles the lower crossings, so only the
			// topmost prefix is needed: frames up to the first non-trunk,
			// non-entry frame.
			var prefix []minivm.MethodRef
			var boundary minivm.MethodRef
			for i, f := range ctx {
				if a.trunk[f] || f == prog.Entry {
					prefix = append(prefix, f)
					continue
				}
				boundary = f
				_ = i
				break
			}
			if boundary != (minivm.MethodRef{}) && len(prefix) > 0 && a.trunk[prefix[len(prefix)-1]] {
				record(a.prefixes, vmKey{v0, boundary}, prefix)
			}
		}
		if err := vm.Run(); err != nil {
			return nil, err
		}
		if trainErr != nil {
			return nil, trainErr
		}
	}
	return a, nil
}

// TrunkSize reports how many methods form the trunk.
func (a *Analysis) TrunkSize() int { return len(a.trunk) }

// DeltaPathSites reports how many call sites the DeltaPath half
// instruments (the savings come from the trunk being excluded).
func (a *Analysis) DeltaPathSites() int { return a.plan.NumInstrumentedSites() }

func (a *Analysis) instrumentedMethods() map[minivm.MethodRef]bool {
	// DeltaPath methods plus trunk methods (which carry PCC payloads).
	out := a.plan.InstrumentedMethods()
	for f := range a.trunk {
		out[f] = true
	}
	out[a.prog.Entry] = true
	return out
}

// Encoder is the hybrid runtime: PCC updates at trunk call sites,
// DeltaPath payloads everywhere else.
type Encoder struct {
	a  *Analysis
	dp *instrument.Encoder
	v  uint64
	// saved restores V across calls, as PCC's callee-local V does.
	saved []uint64
	cs    map[minivm.SiteRef]uint64
}

// NewEncoder builds a fresh runtime encoder (one per VM).
func (a *Analysis) NewEncoder() *Encoder {
	cs := make(map[minivm.SiteRef]uint64)
	g := a.pccBuild.Graph
	for _, s := range g.Sites() {
		ref := a.pccBuild.RefOf[s.Caller]
		if a.trunk[ref] || ref == a.prog.Entry {
			cs[minivm.SiteRef{In: ref, Site: s.Label}] = pcc.SiteConstant(minivm.SiteRef{In: ref, Site: s.Label})
		}
	}
	return &Encoder{a: a, dp: instrument.NewEncoder(a.plan), cs: cs}
}

// PCCValue returns the current trunk hash V.
func (e *Encoder) PCCValue() uint64 { return e.v }

// DeltaPath exposes the DeltaPath half (for state snapshots).
func (e *Encoder) DeltaPath() *instrument.Encoder { return e.dp }

// BeforeCall implements minivm.Probes.
func (e *Encoder) BeforeCall(site minivm.SiteRef, target minivm.MethodRef) uint8 {
	if c, ok := e.cs[site]; ok {
		e.saved = append(e.saved, e.v)
		e.v = (3*e.v + c) & 0xffffffff
		return 1 << 7
	}
	return e.dp.BeforeCall(site, target)
}

// AfterCall implements minivm.Probes.
func (e *Encoder) AfterCall(site minivm.SiteRef, target minivm.MethodRef, token uint8) {
	if token == 1<<7 {
		e.v = e.saved[len(e.saved)-1]
		e.saved = e.saved[:len(e.saved)-1]
		return
	}
	e.dp.AfterCall(site, target, token)
}

// Enter implements minivm.Probes.
func (e *Encoder) Enter(m minivm.MethodRef) uint8 { return e.dp.Enter(m) }

// Exit implements minivm.Probes.
func (e *Encoder) Exit(m minivm.MethodRef, token uint8) { e.dp.Exit(m, token) }

// BeginTask implements minivm.TaskProbes.
func (e *Encoder) BeginTask(entry minivm.MethodRef) {
	e.v = 0
	e.saved = e.saved[:0]
	e.dp.BeginTask(entry)
}

// Capture snapshots the hybrid encoding at an emit point.
type Capture struct {
	V     uint64
	State *encoding.State
}

// Capture records the current encoding.
func (e *Encoder) Capture() Capture {
	return Capture{V: e.v, State: e.dp.State().Snapshot()}
}

// Decode recovers the context of a capture taken at method m. Emits inside
// trunk methods resolve through the trained (V, point) memo — exactly the
// paper's "decode such a PCC value based on the mapping". Emits in the
// DeltaPath region decode precisely from the piece stack; if the context
// crossed out of the trunk, the leading gap resolves through the trained
// prefix table, or stays an honest "..." when the prefix was never seen in
// training.
func (a *Analysis) Decode(c Capture, m minivm.MethodRef) ([]string, error) {
	node, known := a.build.NodeOf[m]
	if !known {
		if ctx, ok := a.trunkCtx[vmKey{c.V, m}]; ok {
			return refNames(ctx), nil
		}
		return []string{"...", m.String()}, nil // honest gap: untrained hot context
	}
	names, err := a.dec.DecodeNames(c.State, node)
	if err != nil {
		return nil, err
	}
	// The DeltaPath decode shows a gap where the trunk ran; resolve the
	// leading portion from the trained prefix keyed by the boundary frame
	// (the first frame after the gap).
	for i, n := range names {
		if n != "..." {
			continue
		}
		if i+1 >= len(names) {
			break
		}
		boundary := parseRef(names[i+1])
		if prefix, ok := a.prefixes[vmKey{c.V, boundary}]; ok && i <= 1 {
			return append(refNames(prefix), names[i+1:]...), nil
		}
		break // only the topmost gap is trunk-resolvable
	}
	return names, nil
}

// parseRef splits "Class.method" at the last dot.
func parseRef(s string) minivm.MethodRef {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '.' {
			return minivm.MethodRef{Class: s[:i], Method: s[i+1:]}
		}
	}
	return minivm.MethodRef{Method: s}
}

func refNames(refs []minivm.MethodRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

func joinRefs(refs []minivm.MethodRef) string { return strings.Join(refNames(refs), ">") }

var (
	_ minivm.Probes     = (*Encoder)(nil)
	_ minivm.TaskProbes = (*Encoder)(nil)
	_                   = joinRefs
)
