package eval

import (
	"math"
	"time"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/obs"
	"deltapath/internal/workload"
)

// EncodeRow reports encode hot-path cost for one benchmark: nanoseconds of
// whole-run time per probe event with the observability layer off (the
// nil-sink default) and on (a live registry), and the relative overhead.
// This is the guard for the layer's design constraint — metrics must not
// distort what they measure — and the row the bench-smoke CI gate compares
// across commits (ratios, not absolute times: the overhead percentage is
// machine-independent even when ns/event is not).
type EncodeRow struct {
	Program       string
	Events        uint64  // probe events per run (calls×2 + entries×2)
	NsPerEventOff float64 // best-of-repeats, observability disabled
	NsPerEventOn  float64 // best-of-repeats, registry attached
	OverheadPct   float64 // (on-off)/off × 100
}

// countingProbes counts probe events without doing any other work — the
// pre-pass that fixes the per-run event count both timed configurations
// are normalized by.
type countingProbes struct{ events uint64 }

func (c *countingProbes) ResolveMethod(minivm.MethodRef) int32 { return -1 }
func (c *countingProbes) ResolveSite(minivm.SiteRef) int32     { return -1 }
func (c *countingProbes) BeforeCall(int32, int32) uint8 {
	c.events++
	return 0
}
func (c *countingProbes) AfterCall(int32, int32, uint8) { c.events++ }
func (c *countingProbes) Enter(int32) uint8 {
	c.events++
	return 0
}
func (c *countingProbes) Exit(int32, uint8) { c.events++ }

// EncodeOverhead measures the observability layer's encode hot-path cost
// over the suite. Each configuration reports the fastest of repeats runs —
// the best-of-N discipline the 1-CPU container demands. reg (nil = a
// private registry) receives the metrics-on runs' counts, so dpbench -json
// can emit the aggregate as its meta.metrics block.
func EncodeOverhead(suite []workload.Params, scale float64, repeats int, reg *obs.Registry) ([]EncodeRow, error) {
	if repeats < 1 {
		repeats = 1
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rows := make([]EncodeRow, 0, len(suite))
	for _, p := range suite {
		prog, err := p.Scale(scale).Generate()
		if err != nil {
			return nil, err
		}
		build, err := cha.Build(prog, cha.Options{Setting: cha.EncodingApplication})
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
		instrSet := plan.InstrumentedMethods()

		// Pre-pass: fix the probe-event count for this (program, seed).
		counter := &countingProbes{}
		vm, err := minivm.NewVM(prog, p.Seed)
		if err != nil {
			return nil, err
		}
		vm.SetProbes(counter)
		vm.SetInstrumented(instrSet)
		if err := vm.Run(); err != nil {
			return nil, err
		}
		events := counter.events
		if events == 0 {
			continue // nothing instrumented at this scale
		}

		// timeRun reports the fastest whole-run seconds over repeats with a
		// fresh encoder per run (observe == nil leaves the no-op sinks).
		timeRun := func(observe func(*instrument.Encoder)) (float64, error) {
			best := math.Inf(1)
			for i := 0; i < repeats; i++ {
				enc := instrument.NewEncoder(plan)
				if observe != nil {
					observe(enc)
				}
				vm, err := minivm.NewVM(prog, p.Seed)
				if err != nil {
					return 0, err
				}
				vm.SetProbes(enc)
				vm.SetInstrumented(instrSet)
				start := time.Now()
				if err := vm.Run(); err != nil {
					return 0, err
				}
				if d := time.Since(start).Seconds(); d < best {
					best = d
				}
			}
			return best, nil
		}

		off, err := timeRun(nil)
		if err != nil {
			return nil, err
		}
		on, err := timeRun(func(enc *instrument.Encoder) { enc.Observe(reg, nil) })
		if err != nil {
			return nil, err
		}
		row := EncodeRow{
			Program:       p.Name,
			Events:        events,
			NsPerEventOff: off * 1e9 / float64(events),
			NsPerEventOn:  on * 1e9 / float64(events),
		}
		row.OverheadPct = (row.NsPerEventOn - row.NsPerEventOff) / row.NsPerEventOff * 100
		rows = append(rows, row)
	}
	return rows, nil
}
