package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"deltapath/internal/eval"
	"deltapath/internal/workload"
)

// This file is the bench-smoke regression gate: dpbench -compare <file>
// re-measures the experiments recorded in a baseline JSON document (a prior
// "dpbench -json" run, conventionally the newest results/BENCH_*.json) and
// fails when a key metric regressed beyond -tolerance.
//
// The container caveat from results/BENCH_0002.json applies: this suite is
// routinely benchmarked on a 1-CPU box where absolute times are noisy and
// multi-worker scaling is meaningless. The gate therefore (1) compares
// best-of-N measurements on both sides, (2) prefers machine-independent
// ratios and counts — the observability overhead (metrics-on /
// metrics-off), the decoder's allocations per decode, the scale tiers'
// bytes/node and identity/verify verdicts, the extend steps'
// delta-verify-vs-full obligation fraction, and the ingest experiment's
// group-commit/per-batch throughput ratio — over absolute timings, which
// are gated only for encode and intern, and (3) never compares
// multi-worker speedup rows — only the workers=1 intern cost.

// baselineDoc mirrors the slice of the -json document the gate reads.
// Unknown experiments in the file are simply not compared.
type baselineDoc struct {
	Encode  []eval.EncodeRow
	Profile []eval.ProfileRow
	Decode  []eval.DecodeRow
	Fig8    []eval.Fig8Row
	Scale   []eval.ScaleRow
	Extend  []eval.ExtendRow
	Ingest  []eval.IngestRow
	Meta    struct {
		Scale float64
		Bench []string
	}
}

// check is one gated comparison. Values are oriented so that higher is
// worse: ratio = fresh/base for lower-is-better metrics and base/fresh for
// higher-is-better ones; ratio > 1+tolerance flags a regression.
type check struct {
	name        string
	base, fresh float64
	ratio       float64
}

func lowerBetter(name string, base, fresh float64) (check, bool) {
	if base <= 0 || fresh <= 0 {
		return check{}, false // degenerate measurement; nothing to gate
	}
	return check{name: name, base: base, fresh: fresh, ratio: fresh / base}, true
}

func higherBetter(name string, base, fresh float64) (check, bool) {
	if base <= 0 || fresh <= 0 {
		return check{}, false
	}
	return check{name: name, base: base, fresh: fresh, ratio: base / fresh}, true
}

// regressed reports whether c fails the gate at the given tolerance.
func (c check) regressed(tolerance float64) bool { return c.ratio > 1+tolerance }

// decodeAllocsSlack is how far a fresh run's allocations per decode may
// exceed the baseline's before the decode row fails. The row counts
// allocations rather than timing decodes, so it needs no noise tolerance:
// the decoder's steady state allocates nothing, and half an allocation per
// decode on average means some decode path started allocating.
const decodeAllocsSlack = 0.5

// decodeChecks gates each baseline decode row on its program's fresh row:
// compiled allocations per decode, an absolute count, reported with ratio 1
// when within decodeAllocsSlack of the baseline and +Inf past it.
func decodeChecks(base, fresh []eval.DecodeRow) []check {
	freshBy := make(map[string]eval.DecodeRow, len(fresh))
	for _, r := range fresh {
		freshBy[r.Program] = r
	}
	var out []check
	for _, b := range base {
		f, ok := freshBy[b.Program]
		if !ok {
			continue
		}
		c := check{name: "decode " + b.Program + " compiled allocs/op", base: b.AllocsPerOp, fresh: f.AllocsPerOp, ratio: 1}
		if f.AllocsPerOp-b.AllocsPerOp >= decodeAllocsSlack {
			c.ratio = math.Inf(1)
		}
		out = append(out, c)
	}
	return out
}

// runCompare executes the gate and exits: 0 when every metric is within
// tolerance, 1 on any regression, 2 on a malformed baseline.
func runCompare(path string, tolerance float64, repeats int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalCompare(err)
	}
	var base baselineDoc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dpbench: -compare %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(base.Encode) == 0 && len(base.Profile) == 0 && len(base.Decode) == 0 &&
		len(base.Fig8) == 0 && len(base.Scale) == 0 && len(base.Extend) == 0 &&
		len(base.Ingest) == 0 {
		fmt.Fprintf(os.Stderr, "dpbench: -compare %s: no comparable experiments (encode/profile/decode/fig8/scale/extend/ingest)\n", path)
		os.Exit(2)
	}
	scale := base.Meta.Scale
	if scale <= 0 {
		scale = 0.1
	}
	suite := suiteFromNames(base.Meta.Bench)
	if repeats < 1 {
		repeats = 1
	}

	var checks []check
	add := func(c check, ok bool) {
		if ok {
			checks = append(checks, c)
		}
	}

	if len(base.Encode) > 0 {
		fresh, err := eval.EncodeOverhead(suite, scale, repeats, nil)
		if err != nil {
			fatalCompare(err)
		}
		freshBy := make(map[string]eval.EncodeRow, len(fresh))
		for _, r := range fresh {
			freshBy[r.Program] = r
		}
		for _, b := range base.Encode {
			f, ok := freshBy[b.Program]
			if !ok {
				continue
			}
			add(lowerBetter("encode "+b.Program+" ns/event (off)", b.NsPerEventOff, f.NsPerEventOff))
			add(lowerBetter("encode "+b.Program+" obs on/off ratio",
				b.NsPerEventOn/b.NsPerEventOff, f.NsPerEventOn/f.NsPerEventOff))
		}
	}

	if len(base.Profile) > 0 {
		baseNs := 0.0
		for _, r := range base.Profile {
			if r.Workers == 1 {
				baseNs = r.NsPerIntern
			}
		}
		best := 0.0
		for i := 0; i < repeats; i++ {
			rows, err := eval.ProfileThroughput(suite, scale, []int{1})
			if err != nil {
				fatalCompare(err)
			}
			if ns := rows[0].NsPerIntern; best == 0 || ns < best {
				best = ns
			}
		}
		add(lowerBetter("profile workers=1 ns/intern", baseNs, best))
	}

	if len(base.Decode) > 0 {
		fresh, err := eval.DecodeLatency(suite, scale, 2048, repeats)
		if err != nil {
			fatalCompare(err)
		}
		checks = append(checks, decodeChecks(base.Decode, fresh)...)
	}

	if len(base.Fig8) > 0 {
		fresh, err := eval.Figure8Workers(suite, scale, repeats, 1)
		if err != nil {
			fatalCompare(err)
		}
		freshBy := make(map[string]eval.Fig8Row, len(fresh))
		for _, r := range fresh {
			freshBy[r.Program] = r
		}
		for _, b := range base.Fig8 {
			f, ok := freshBy[b.Program]
			if !ok {
				continue
			}
			add(higherBetter("fig8 "+b.Program+" DP(wCPT) speed", b.DeltaCPT, f.DeltaCPT))
		}
	}

	if len(base.Scale) > 0 {
		// Scale tiers: only machine-independent facts are gated — the
		// analysis memory budget (bytes/node is an allocation count, not a
		// timing) plus the hard correctness verdicts; absolute tier timings
		// are recorded in the baseline but never compared. Tiers above 10⁵
		// nodes are skipped: re-measuring them is a minutes-scale job that
		// belongs to scale-smoke, not the bench gate.
		byTier := make(map[string]workload.HugeParams)
		for _, p := range workload.HugeTiers(scaleTierFactor(base.Scale)) {
			byTier[p.Name] = p
		}
		for _, b := range base.Scale {
			if b.Nodes > 100_000 || !b.Identical || !b.VerifyClean {
				continue // over-budget tier, or baseline itself not certified
			}
			p, ok := byTier[b.Tier]
			if !ok {
				fmt.Fprintf(os.Stderr, "dpbench: baseline names unknown scale tier %q (re-baseline needed)\n", b.Tier)
				os.Exit(2)
			}
			fresh, err := eval.ScaleCurve([]workload.HugeParams{p}, b.Par, b.DecodeSample)
			if err != nil {
				fatalCompare(err)
			}
			f := fresh[0]
			if !f.Identical || !f.VerifyClean || !f.VerifyIdentical {
				// Not a tolerance question: two analyses disagreeing, an
				// uncertified spec, or a parallel verifier disagreeing with
				// the serial one fails the gate outright.
				checks = append(checks, check{
					name: "scale " + b.Tier + " identity+verify", base: 1, fresh: 0, ratio: math.Inf(1),
				})
				continue
			}
			add(lowerBetter("scale "+b.Tier+" bytes/node", b.BytesPerNode, f.BytesPerNode))
		}
	}

	if len(base.Extend) > 0 {
		// Extend steps: absolute latencies are container noise, but the
		// delta-verify-vs-full proof reuse is a deterministic count for a
		// given program — the fraction of interval obligations the epoch
		// gate re-derived instead of reusing from the previous certificate.
		// A step that certified incrementally in the baseline but fell back
		// to a full proof fresh fails outright: the incremental engine
		// stopped accepting its own certificates.
		fresh, err := eval.ExtendLatency(nil)
		if err != nil {
			fatalCompare(err)
		}
		freshBy := make(map[string]eval.ExtendRow, len(fresh))
		for _, r := range fresh {
			freshBy[r.Program+"/"+r.Class] = r
		}
		for _, b := range base.Extend {
			if !b.VerifyDelta || b.ObligationsTotal == 0 {
				continue // first epoch (no prior certificate) or degenerate
			}
			f, ok := freshBy[b.Program+"/"+b.Class]
			if !ok {
				continue // baseline included -mv extras the gate does not re-run
			}
			step := "extend " + b.Program + "/" + b.Class
			if !f.VerifyDelta || f.ObligationsTotal == 0 {
				checks = append(checks, check{
					name: step + " delta proof", base: 1, fresh: 0, ratio: math.Inf(1),
				})
				continue
			}
			if b.ObligationsChecked == 0 {
				// A fully reused proof has ratio 0, which no tolerance can
				// scale; gate it as an exact count instead.
				if f.ObligationsChecked > 0 {
					checks = append(checks, check{
						name: step + " delta/full obligations", base: 0,
						fresh: float64(f.ObligationsChecked), ratio: math.Inf(1),
					})
				}
				continue
			}
			add(lowerBetter(step+" delta/full obligations",
				float64(b.ObligationsChecked)/float64(b.ObligationsTotal),
				float64(f.ObligationsChecked)/float64(f.ObligationsTotal)))
		}
	}

	if len(base.Ingest) > 0 {
		// Ingest: absolute batches/sec is storage-bound, but the
		// group-commit/per-batch throughput ratio at a given agent count is
		// a property of the commit policy — gate that. Best-of-N on the
		// fresh side, like the timing gates.
		// The 1-agent row is recorded but never gated: a solo pusher gets
		// one fsync per batch under either policy, so its "ratio" is two
		// measurements of the same thing — pure disk noise.
		var counts []int
		for _, b := range base.Ingest {
			if b.Agents > 1 && b.Speedup > 0 {
				counts = append(counts, b.Agents)
			}
		}
		if len(counts) > 0 {
			bestBy := make(map[int]float64)
			fresh, err := eval.IngestThroughput(scale, repeats, counts)
			if err != nil {
				fatalCompare(err)
			}
			for _, f := range fresh {
				if f.Speedup > bestBy[f.Agents] {
					bestBy[f.Agents] = f.Speedup
				}
			}
			for _, b := range base.Ingest {
				if b.Agents <= 1 || b.Speedup <= 0 {
					continue
				}
				add(higherBetter(fmt.Sprintf("ingest agents=%d group-commit speedup", b.Agents),
					b.Speedup, bestBy[b.Agents]))
			}
		}
	}

	regressions := 0
	fmt.Printf("bench-smoke gate: %s vs fresh best-of-%d (tolerance %.0f%%)\n",
		path, repeats, tolerance*100)
	fmt.Printf("%-42s %12s %12s %8s  %s\n", "metric", "baseline", "fresh", "ratio", "verdict")
	for _, c := range checks {
		verdict := "ok"
		if c.regressed(tolerance) {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-42s %12.2f %12.2f %8.3f  %s\n", c.name, c.base, c.fresh, c.ratio, verdict)
	}
	if regressions > 0 {
		fmt.Printf("%d of %d metrics regressed beyond %.0f%%\n", regressions, len(checks), tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("all %d metrics within tolerance\n", len(checks))
}

// suiteFromNames resolves the baseline's benchmark subset (empty = full
// suite). Unknown names are fatal: a renamed benchmark needs re-baselining,
// not a silently shrunken gate.
func suiteFromNames(names []string) []workload.Params {
	if len(names) == 0 {
		return workload.Suite()
	}
	out := make([]workload.Params, 0, len(names))
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "dpbench: baseline names unknown benchmark %q (re-baseline needed)\n", name)
			os.Exit(2)
		}
		out = append(out, p)
	}
	return out
}

// scaleTierFactor recovers the HugeTiers scale factor a baseline's scale
// rows were generated with, from the first tier's name ("huge-<n>k" targets
// n×1000 nodes; the tier base is 100k).
func scaleTierFactor(rows []eval.ScaleRow) float64 {
	if len(rows) == 0 {
		return 1
	}
	name := strings.TrimSuffix(strings.TrimPrefix(rows[0].Tier, "huge-"), "k")
	n, err := strconv.Atoi(name)
	if err != nil || n <= 0 {
		return 1
	}
	return float64(n) * 1000 / 100_000
}

func fatalCompare(err error) {
	fmt.Fprintln(os.Stderr, "dpbench: compare:", err)
	os.Exit(1)
}
