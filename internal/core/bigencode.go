package core

import (
	"fmt"
	"math/big"

	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// BigResult is the output of EncodeBig: the strawman design Section 3.2
// rejects, in which no anchors are used and addition values are
// arbitrary-precision integers. It exists so the rejection can be measured
// (BenchmarkAblationBigIntEncoder) rather than asserted.
type BigResult struct {
	Graph *callgraph.Graph
	// AV is the per-site addition value, arbitrary precision.
	AV map[callgraph.Site]*big.Int
	// Push marks recursive edges (they still start pieces — recursion is
	// orthogonal to the integer-width question).
	Push map[callgraph.Edge]encoding.PieceKind
	// Anchors are the runtime piece-start nodes (recursion targets and
	// orphans; never overflow anchors — avoiding those is the point of
	// this design). Their entries save and reset the big ID.
	Anchors map[callgraph.NodeID]bool
	// MaxID is the largest encoding value any context can take.
	MaxID *big.Int
}

// EncodeBig runs Algorithm 1 with big.Int arithmetic and no overflow
// anchors: the entire encoding space lives in one arbitrary-precision
// integer per thread. Addition values can be hundreds of bits wide; the
// runtime cost of applying them is what BenchmarkAblationBigIntEncoder
// measures against the anchor-based design.
func EncodeBig(g *callgraph.Graph) (*BigResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	entry, _ := g.Entry()
	comp, rec := recursiveEdges(g)
	topo, err := g.TopoOrder(rec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	an := map[callgraph.NodeID]bool{entry: true}
	for e := range rec {
		an[e.Callee] = true
	}
	for _, n := range g.ContextRoots() {
		an[n] = true
	}
	resets := resetAnchors(an, entry, recursiveEntry(rec, entry))

	p := &pass{
		nanchors: make(map[callgraph.NodeID][]callgraph.NodeID),
		eanchors: make(map[callgraph.Edge][]callgraph.NodeID),
	}
	identifyTerritories(g, rec, an, resets, p)
	addBigOrphans(g, comp, rec, an, resets, p)

	one := big.NewInt(1)
	cav := make(map[callgraph.NodeID]map[callgraph.NodeID]*big.Int)
	icc := make(map[callgraph.NodeID]map[callgraph.NodeID]*big.Int)
	for n, anchors := range p.nanchors {
		m := make(map[callgraph.NodeID]*big.Int, len(anchors))
		for _, r := range anchors {
			m[r] = big.NewInt(0)
		}
		cav[n] = m
	}
	res := &BigResult{
		Graph: g,
		AV:    make(map[callgraph.Site]*big.Int),
		Push:  make(map[callgraph.Edge]encoding.PieceKind, len(rec)),
		MaxID: big.NewInt(0),
	}
	for e := range rec {
		res.Push[e] = encoding.PieceRecursion
	}
	processed := make(map[callgraph.Site]bool)
	for _, n := range topo {
		for _, e := range g.ForwardIn(n, rec) {
			cs := e.Site()
			if processed[cs] {
				continue
			}
			processed[cs] = true
			a := big.NewInt(0)
			targets := g.SiteTargets(cs)
			for _, te := range targets {
				if rec[te] {
					continue
				}
				for _, r := range p.eanchors[te] {
					if v := cav[te.Callee][r]; v.Cmp(a) > 0 {
						a = v
					}
				}
			}
			a = new(big.Int).Set(a)
			for _, te := range targets {
				if rec[te] {
					continue
				}
				iccP := icc[te.Caller]
				for _, r := range p.eanchors[te] {
					w := iccP[r]
					if w == nil {
						w = big.NewInt(0)
					}
					v := new(big.Int).Add(w, a)
					cav[te.Callee][r] = v
					if v.Cmp(res.MaxID) > 0 {
						res.MaxID = v
					}
				}
			}
			res.AV[cs] = a
		}
		if resets[n] {
			icc[n] = map[callgraph.NodeID]*big.Int{n: one}
		} else if cavN := cav[n]; len(cavN) > 0 {
			m := make(map[callgraph.NodeID]*big.Int, len(cavN))
			for r, v := range cavN {
				m[r] = v
			}
			if an[n] {
				m[n] = one // non-resetting entry: reserved width of 1
			}
			icc[n] = m
		}
	}
	if res.MaxID.Sign() > 0 {
		res.MaxID = new(big.Int).Sub(res.MaxID, one)
	}
	res.Anchors = make(map[callgraph.NodeID]bool, len(resets))
	for n := range resets {
		res.Anchors[n] = true
	}
	return res, nil
}

// addBigOrphans mirrors addOrphanAnchors for the big-int pass: nodes with
// no forward in-edges still need a territory of their own.
func addBigOrphans(g *callgraph.Graph, comp []int, rec map[callgraph.Edge]bool,
	an, resets map[callgraph.NodeID]bool, p *pass) {
	before := len(an)
	addOrphanAnchors(g, comp, an)
	if len(an) != before {
		for n := range an {
			if !resets[n] && n != mustEntry(g) {
				resets[n] = true
			}
		}
		// Rebuild territories with the enlarged anchor set.
		p.nanchors = make(map[callgraph.NodeID][]callgraph.NodeID)
		p.eanchors = make(map[callgraph.Edge][]callgraph.NodeID)
		identifyTerritories(g, rec, an, resets, p)
	}
}

func mustEntry(g *callgraph.Graph) callgraph.NodeID {
	entry, _ := g.Entry()
	return entry
}
