package cpt

import "deltapath/internal/obs"

// Observe publishes the plan's static shape as gauges (nil reg = no-op):
// how many SID sets the union-find produced and how many call sites carry
// a saved expectation. Both are fixed per analysis, so a single Set at
// enable time suffices.
func (p *Plan) Observe(reg *obs.Registry) {
	reg.Gauge(obs.MetricCPTSets).Set(uint64(p.NumSets))
	sites := 0
	for _, sid := range p.Expected {
		if sid >= 0 {
			sites++
		}
	}
	reg.Gauge(obs.MetricCPTSites).Set(uint64(sites))
}
