package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"deltapath"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
	"deltapath/internal/workload"
)

// profile-run: each suite program runs natively and under a profiling
// Session, the two arms alternating, then the profile is saved and decoded.
// This is the per-event path Figure 8 prices.

// decodeWorkers is the DecodeProfile worker count: one per vCPU of the
// reference machine.
const decodeWorkers = 2

type profileProgram struct {
	name    string
	prog    *deltapath.Program
	an      *deltapath.Analysis
	seed    uint64          // VM dispatch seed
	dynamic map[string]bool // classes loaded only at run time
}

type profileStage struct {
	sz    sizes
	progs []*profileProgram
	// reports holds the last round's decoded profiles, so heap_mib sees
	// the stage's products.
	reports []*deltapath.ProfileReport
}

// setupProfile generates the programs (loop trips scaled up) and analyses
// them with Analyze defaults: encoding-all, CPT on. With metrics, the
// analyses count events (traced runs only).
func setupProfile(sz sizes, seed uint64, metrics bool) (*profileStage, error) {
	st := &profileStage{sz: sz}
	for i, name := range sz.profilePrograms {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no suite program %q", name)
		}
		prog, err := p.Scale(sz.profileScale[i]).Generate()
		if err != nil {
			return nil, err
		}
		an, err := deltapath.Analyze(prog, deltapath.Options{})
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", name, err)
		}
		if metrics {
			an.EnableMetrics()
		}
		dyn := map[string]bool{}
		for _, c := range prog.Dynamic {
			dyn[c.Name] = true
		}
		st.progs = append(st.progs, &profileProgram{name: name, prog: prog, an: an, seed: mix(seed, uint64(i)), dynamic: dyn})
	}
	return st, nil
}

// profileRound is what one round measured, summed over programs except
// ratio, which is per program.
type profileRound struct {
	ratio      []float64 // profiled ÷ native time, per program
	profiledS  float64
	steps      float64 // VM steps of the profiled runs
	unique     float64 // distinct contexts saved and decoded
	saveDecode float64 // seconds in Profile.Save + DecodeProfile

	// Common-operation time, compared between the untraced and the traced
	// arm of a traced run to give the tracing overhead.
	commonS float64
	layers  map[string]float64 // traced rounds only
}

// round runs every program once. Arms alternate their order by round so
// drift between them cancels. With a tracer, the round also runs a session
// with a no-op emit callback and times decoding on one goroutine, and
// records per-layer values.
func (st *profileStage) round(rnd int, r *run, tr *tracer) profileRound {
	out := profileRound{}
	traced := tr != nil
	if traced {
		out.layers = map[string]float64{}
	}
	st.reports = st.reports[:0]
	root := tr.begin(nil, fmt.Sprintf("profile-run round %d", rnd), "bench", "", 1)
	for _, pp := range st.progs {
		var nat, prof time.Duration
		var natSteps uint64
		var res profiledResult
		if rnd%2 == 0 {
			nat, natSteps = st.native(pp, r, tr, root)
			prof, res = st.profiled(pp, r, tr, root)
		} else {
			prof, res = st.profiled(pp, r, tr, root)
			nat, natSteps = st.native(pp, r, tr, root)
		}
		if natSteps != res.steps {
			r.op(fmt.Errorf("%s: native run took %d steps, profiled run %d", pp.name, natSteps, res.steps))
		} else {
			r.op(nil)
		}

		runtime.GC()
		sp := tr.begin(root, "Profile.Save", "profile", "", 1)
		var buf bytes.Buffer
		err := res.profile.Save(&buf)
		save := sp.end()
		r.op(err)
		sp = tr.begin(root, "DecodeProfile", "profile", "", 1)
		rep, err := pp.an.DecodeProfile(&buf, decodeWorkers)
		decode := sp.end()
		if err == nil && rep.Total != res.accepted {
			err = fmt.Errorf("%s: DecodeProfile total %d, accepted Profile.Add calls %d", pp.name, rep.Total, res.accepted)
		}
		r.op(err)
		st.reports = append(st.reports, rep)

		out.ratio = append(out.ratio, prof.Seconds()/nat.Seconds())
		out.profiledS += prof.Seconds()
		out.steps += float64(res.steps)
		out.unique += float64(res.profile.Unique())
		out.saveDecode += (save + decode).Seconds()
		out.commonS += (nat + prof + save + decode).Seconds()

		if traced {
			st.layerRound(pp, r, tr, root, nat, prof, res, save, decode, out.layers)
		}
	}
	root.end()
	return out
}

func (st *profileStage) native(pp *profileProgram, r *run, tr *tracer, parent *openSpan) (time.Duration, uint64) {
	runtime.GC()
	sp := tr.begin(parent, "minivm.Run "+pp.name, "minivm", "", 1)
	vm, err := minivm.NewVM(pp.prog, pp.seed)
	if err == nil {
		err = vm.Run()
	}
	d := sp.end()
	r.op(err)
	if err != nil {
		return d, 0
	}
	return d, vm.Steps
}

type profiledResult struct {
	steps    uint64
	emits    uint64
	accepted uint64
	profile  *deltapath.Profile
	mallocs  uint64 // traced runs only
}

// profiled runs the program under a Session whose emit callback calls
// Profile.Add.
func (st *profileStage) profiled(pp *profileProgram, r *run, tr *tracer, parent *openSpan) (time.Duration, profiledResult) {
	var res profiledResult
	res.profile = pp.an.NewProfile(0)
	runtime.GC()
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin(parent, "Session.Run+Profile.Add "+pp.name, "deltapath", "", 1)
	s, err := pp.an.NewSession(pp.seed)
	if err == nil {
		_, err = s.Run(func(c deltapath.Context) {
			res.emits++
			if res.profile.Add(c) {
				res.accepted++
			}
		})
	}
	d := sp.end()
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.mallocs = after.Mallocs - before.Mallocs
	}
	r.op(err)
	if err == nil {
		res.steps = s.VM().Steps
	}
	return d, res
}

// Encoder and interpreter counters a traced round reports per run; they
// repeat exactly for a given seed.
var profileCounters = map[string]string{
	"minivm.calls":                 obs.MetricVMCalls,
	"instrument.additions":         obs.MetricEncoderAdditions,
	"instrument.anchor_pushes":     obs.MetricEncoderAnchorPushes,
	"instrument.ucp_hazard_pushes": obs.MetricEncoderUCPPushes,
	"instrument.sid_checks":        obs.MetricEncoderSIDChecks,
}

// layerRound adds one program's per-layer values to layers: the session
// with a no-op emit callback separates the encoder's cost from the
// interpreter's and Profile.Add's, and decoding on one goroutine gives
// the compiled decoder's cost per record.
func (st *profileStage) layerRound(pp *profileProgram, r *run, tr *tracer, parent *openSpan,
	nat, prof time.Duration, res profiledResult, save, decode time.Duration, layers map[string]float64) {
	before := pp.an.Metrics().Snapshot()
	runtime.GC()
	sp := tr.begin(parent, "Session.Run no-op "+pp.name, "instrument", "", 1)
	s, err := pp.an.NewSession(pp.seed)
	if err == nil {
		_, err = s.Run(func(deltapath.Context) {})
	}
	noop := sp.end()
	r.op(err)
	after := pp.an.Metrics().Snapshot()
	for name, counter := range profileCounters {
		layers[name] += float64(after[counter] - before[counter])
	}

	recs := res.profile.Records()
	runtime.GC()
	sp = tr.begin(parent, "Analysis.DecodeBytes "+pp.name, "encoding", "", 1)
	var decErr error
	for _, rec := range recs {
		if _, err := pp.an.DecodeBytes(rec.Key); err != nil && decErr == nil {
			decErr = fmt.Errorf("%s: decode: %w", pp.name, err)
		}
	}
	oneGoroutine := sp.end()
	r.op(decErr)

	layers["minivm.native_ms"] += ms(nat)
	layers["minivm.steps"] += float64(res.steps)
	layers["instrument.encode_ms"] += ms(noop - nat)
	layers["profile.add_ms"] += ms(prof - noop)
	layers["profile.emits"] += float64(res.emits)
	layers["profile.unique"] += float64(len(recs))
	layers["profile.save_ms"] += ms(save)
	layers["profile.decode_ms"] += ms(decode)
	layers["mallocs"] += float64(res.mallocs)
	layers["decode_ns_total"] += float64(oneGoroutine.Nanoseconds())
}

// setupTimedProfile sets the untraced profile-run stage up setupRepeats
// times and returns the last set-up and the median set-up time.
func setupTimedProfile(cfg config) (*profileStage, float64, error) {
	return measureSetup(func(int) (*profileStage, error) { return setupProfile(cfg.sz, cfg.seed, false) },
		func(*profileStage) {})
}

// timedRounds appends to rounds one timed part of the untraced stage: at
// least profileRounds rounds, and more while one as long as the last still
// ends within the window. Rounds are numbered on from the earlier parts,
// so the arms keep alternating.
func (st *profileStage) timedRounds(r *run, rounds []profileRound, window time.Duration) []profileRound {
	start := time.Now()
	var last time.Duration
	for n := 0; n < st.sz.profileRounds || time.Since(start)+last <= window; n++ {
		t := time.Now()
		rounds = append(rounds, st.round(len(rounds), r, nil))
		last = time.Since(t)
	}
	return rounds
}

// reportProfile sets the stage's end-to-end metrics from its rounds.
func reportProfile(r *run, rounds []profileRound) {
	var perProg [][]float64
	var stepsPerS, ctxPerS []float64
	for _, rd := range rounds {
		for i, x := range rd.ratio {
			if i == len(perProg) {
				perProg = append(perProg, nil)
			}
			perProg[i] = append(perProg[i], x)
		}
		stepsPerS = append(stepsPerS, rd.steps/rd.profiledS)
		ctxPerS = append(ctxPerS, rd.unique/rd.saveDecode)
	}
	var slow []float64
	for _, xs := range perProg {
		slow = append(slow, median(xs))
	}
	r.set("slowdown", geomean(slow), "ratio")
	r.set("steps_per_s", median(stepsPerS), "1/s")
	r.set("contexts_per_s", median(ctxPerS), "1/s")
}

// checkContexts is the untimed ground-truth pass: every distinct profiled
// context must decode to the VM's stack at its emit point, restricted to
// classes that are not loaded dynamically, with "..." gaps dropped.
func (st *profileStage) checkContexts(r *run, f fault) {
	for _, pp := range st.progs {
		truth := map[string]string{}
		s, err := pp.an.NewSession(pp.seed)
		if err == nil {
			_, err = s.Run(func(c deltapath.Context) {
				rec, err := c.MarshalBinary()
				if err != nil {
					return // unanalysed emit point: Profile.Add skips it too
				}
				want := groundTruth(s.VM(), pp.dynamic)
				if prev, ok := truth[string(rec)]; ok && prev != want {
					r.op(fmt.Errorf("%s: one record stands for two contexts:\n  %s\n  %s", pp.name, prev, want))
				}
				truth[string(rec)] = want
			})
		}
		r.op(err)
		keys := make([]string, 0, len(truth))
		for k := range truth {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			rec := []byte(k)
			if f == faultFlipRecord && i == len(keys)/2 {
				rec[0] ^= 0x01
			}
			names, err := pp.an.DecodeBytes(rec)
			if err == nil {
				if got := withoutGaps(names); got != truth[k] {
					err = fmt.Errorf("%s: record decodes to\n  %s\nbut the VM stack was\n  %s", pp.name, got, truth[k])
				}
			}
			r.op(err)
		}
	}
}

// groundTruth renders the VM's stack restricted to non-dynamic classes.
func groundTruth(vm *minivm.VM, dynamic map[string]bool) string {
	var b strings.Builder
	for i := 0; i < vm.Depth(); i++ {
		f := vm.Frame(i)
		if dynamic[f.Class] {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" > ")
		}
		b.WriteString(f.String())
	}
	return b.String()
}

func withoutGaps(names []string) string {
	kept := make([]string, 0, len(names))
	for _, n := range names {
		if n != "..." {
			kept = append(kept, n)
		}
	}
	return strings.Join(kept, " > ")
}
