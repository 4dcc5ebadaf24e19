package core

import (
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
	st, av, bound, err := bigPass(g, true)
	if err != nil {
		return nil, err
	}
	nb := g.Numbering()
	res := &BigResult{
		Graph:   g,
		AV:      make(map[callgraph.Site]*big.Int),
		Push:    make(map[callgraph.Edge]encoding.PieceKind, len(st.rec)),
		Anchors: make(map[callgraph.NodeID]bool, len(st.resets)),
		MaxID:   bound,
	}
	for k, a := range av {
		if a != nil {
			res.AV[nb.Site(int32(k))] = a
		}
	}
	for e := range st.rec {
		res.Push[e] = encoding.PieceRecursion
	}
	for n := range st.resets {
		res.Anchors[n] = true
	}
	if bound.Sign() > 0 {
		bound.Sub(bound, big.NewInt(1))
	}
	return res, nil
}
