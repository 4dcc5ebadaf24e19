package core

import "deltapath/internal/callgraph"

// encodeOracle is Encode with every pass run by the reference map sweep
// instead of the level-parallel engine. The engine must reproduce its
// Result bit for bit.
func encodeOracle(g *callgraph.Graph, opts Options) (*Result, error) {
	st, err := newRestartState(g, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for {
		run, overflowAt, ok := runOnce(g, st.topo, st.rec, st.an, st.resets, st.maxID,
			opts.EdgeProfile, opts.BatchAnchors)
		if !ok {
			if err := st.promote(g, res, overflowAt); err != nil {
				return nil, err
			}
			continue
		}
		res.finish(g, st.rec, st.an, st.resets, run)
		return res, nil
	}
}

// runOnce is the reference map sweep: one iteration of Algorithm 2's
// restart loop, written as the paper states it. On overflow it returns the
// callers to promote to anchors and ok=false.
func runOnce(g *callgraph.Graph, topo []callgraph.NodeID, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, maxID uint64, profile map[callgraph.Edge]uint64,
	batch bool) (*pass, []callgraph.NodeID, bool) {

	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID),
		cav:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		icc:      make(map[callgraph.NodeID]map[callgraph.NodeID]uint64),
		av:       make(map[callgraph.Site]uint64),
		batch:    batch,
		dead:     make(map[callgraph.NodeID]map[callgraph.NodeID]bool),
		seenOver: make(map[callgraph.NodeID]bool),
	}
	identifyTerritories(g, rec, an, resets, p)

	// CAV[n][r] starts at 0 for every anchor r that can reach n.
	for n, anchors := range p.nanchors {
		m := make(map[callgraph.NodeID]uint64, len(anchors))
		for _, r := range anchors {
			m[r] = 0
		}
		p.cav[n] = m
	}

	processed := make(map[callgraph.Site]bool)
	for _, n := range topo {
		for _, e := range orderIn(g.ForwardIn(n, rec), profile) {
			cs := e.Site()
			if processed[cs] {
				continue
			}
			processed[cs] = true
			a, overflow := calculateIncrement(g, rec, cs, p, maxID)
			if overflow && !batch {
				return nil, []callgraph.NodeID{cs.Caller}, false
			}
			p.av[cs] = a
		}
		if resets[n] {
			p.icc[n] = map[callgraph.NodeID]uint64{n: 1}
		} else if cavN := p.cav[n]; len(cavN) > 0 {
			m := make(map[callgraph.NodeID]uint64, len(cavN))
			for r, v := range cavN {
				if p.batch && p.isDead(n, r) {
					continue // dead range: do not seed downstream counts
				}
				m[r] = v
			}
			if an[n] {
				// Non-resetting piece start — the entry: exactly one
				// context (program start) reaches it within its own
				// piece, while calls into it continue their callers'
				// pieces, so its ICC merges the reserved 1 with the
				// interior cells those callers see.
				m[n] = 1
			}
			p.icc[n] = m
		}
	}
	if len(p.overflows) > 0 {
		return nil, p.overflows, false
	}
	return p, nil, true
}
