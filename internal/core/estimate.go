package core

import (
	"fmt"
	"math/big"

	"deltapath/internal/callgraph"
)

// EstimateSpace computes, with arbitrary-precision integers, the encoding
// space the graph would need without any overflow anchors: the largest
// encoding ID any context could take when only the entry, the
// recursive-edge targets and the context roots start pieces. This is Table
// 1's "max. ID" column, which for the largest SPECjvm programs exceeds a
// 64-bit integer — the very observation motivating Algorithm 2.
//
// It runs Encode's first pass on the engine's rows and schedule, with
// big.Int cells that never overflow (bigPass); the equivalence is
// property-tested against Encode on graphs that fit in uint64.
//
// The second result is the number of bits required (bit length of the
// space bound), handy for "needs N-bit integers" reporting.
func EstimateSpace(g *callgraph.Graph) (*big.Int, int, error) {
	_, _, bound, err := bigPass(g, false)
	if err != nil {
		return nil, 0, err
	}
	if bound.Sign() > 0 {
		bound.Sub(bound, big.NewInt(1)) // exclusive bound -> largest ID
	}
	return bound, bound.BitLen(), nil
}

// bigPass runs Algorithm 1 once over the engine's territory rows and site
// schedule with arbitrary-precision cells, so nothing overflows and no
// overflow anchor is added; with orphans, the roots of code no anchor
// reaches start pieces too. It returns the pass's anchor sets, each swept
// site's addition value by site id (nil for sites the pass never sweeps)
// and the largest cell, the exclusive bound of the encoding space.
func bigPass(g *callgraph.Graph, orphans bool) (*restartState, []*big.Int, *big.Int, error) {
	st, err := newRestartState(g, Options{}, orphans)
	if err != nil {
		return nil, nil, nil, err
	}
	eng := newEngine(g, st, nil)
	eng.rebuild(0)
	one := big.NewInt(1)
	cav := make([]big.Int, len(eng.rowBuf))
	av := make([]*big.Int, eng.nb.NumSites())
	bound := new(big.Int)
	for _, s := range eng.taskBuf {
		targets := eng.nb.Targets(s)
		a := new(big.Int)
		for _, ei := range targets {
			for _, ea := range eng.ent[eng.eOff[ei]:eng.eEnd[ei]] {
				if v := &cav[ea.calleeCell]; v.Cmp(a) > 0 {
					a.Set(v)
				}
			}
		}
		av[s] = a
		c := eng.nb.Caller[targets[0]]
		for _, ei := range targets {
			for _, ea := range eng.ent[eng.eOff[ei]:eng.eEnd[ei]] {
				w := one // a piece start's reserved width (iccRead)
				if ea.anchor != c {
					w = &cav[ea.callerCell]
				}
				v := &cav[ea.calleeCell]
				v.Add(w, a)
				if v.Cmp(bound) > 0 {
					bound.Set(v)
				}
			}
		}
	}
	return st, av, bound, nil
}

// FormatSpace renders a space bound the way Table 1 does: small numbers in
// full, large ones in scientific notation with one decimal (e.g. "4.4e21").
func FormatSpace(v *big.Int) string {
	if v.BitLen() <= 13 { // < 8192: print exactly
		return v.String()
	}
	f := new(big.Float).SetInt(v)
	return fmt.Sprintf("%.1e", f)
}
