package callgraph

// Numbering is a graph's dense id space: the one flat reading of the rows
// that the analysis layers (core's engine, the verifier's view, cpt,
// analysisio) index their arrays by, built in a single O(V+E) pass with no
// map and no sort.
//
//   - Edge ids are out-row slots: Out(n)[k] has id OutStart[n]+k, so the ids
//     run in caller order and, within a caller, in insertion order.
//   - Site ids follow Sites() order: node n's sites are ids
//     [NodeSites[n], NodeSites[n+1]), sorted by label.
//   - Site k's dispatch targets are the edge ids
//     SiteEdges[SiteStart[k]:SiteStart[k+1]], in insertion order, as
//     SiteTargets returns them.
//
// A Numbering is immutable and shared: Graph.Numbering returns the same one
// to every caller until the graph is next mutated, so its slices must not
// be modified.
type Numbering struct {
	// OutStart has one entry per node plus a terminator.
	OutStart []int32
	// Caller, Callee and Label describe each edge id.
	Caller, Callee, Label []int32

	// NodeSites has one entry per node plus a terminator; SiteLabel is each
	// site id's label.
	NodeSites []int32
	SiteLabel []int32
	// SiteStart has one entry per site plus a terminator.
	SiteStart []int32
	SiteEdges []int32
}

// Numbering returns the graph's numbering. It is built on the first call
// after a mutation and then shared, published safely for concurrent readers
// of an unmutated graph.
func (g *Graph) Numbering() *Numbering {
	if nb := g.num.Load(); nb != nil {
		return nb
	}
	nb := g.number()
	if g.num.CompareAndSwap(nil, nb) {
		return nb
	}
	return g.num.Load()
}

// number builds the numbering from the rows. A site's targets are the
// out-row edges with its label, in out-row order, because both the row and
// the site keep insertion order.
func (g *Graph) number() *Numbering {
	nn, ne, ns := len(g.nodes), g.numEdges, g.numSites
	nb := &Numbering{
		OutStart:  make([]int32, nn+1),
		Caller:    make([]int32, ne),
		Callee:    make([]int32, ne),
		Label:     make([]int32, ne),
		NodeSites: make([]int32, nn+1),
		SiteLabel: make([]int32, ns),
		SiteStart: make([]int32, ns+1),
		SiteEdges: make([]int32, ne),
	}
	var fill []int32 // per site of the current caller: targets placed
	ei, k, slot := int32(0), int32(0), int32(0)
	for n := 0; n < nn; n++ {
		nb.OutStart[n], nb.NodeSites[n] = ei, k
		row := g.rows[n].sites
		for _, s := range row {
			nb.SiteLabel[k], nb.SiteStart[k] = s.label, slot
			slot += int32(len(s.targets))
			k++
		}
		fill = append(fill[:0], make([]int32, len(row))...)
		for _, e := range g.rows[n].out {
			j, _ := findSite(row, e.Label)
			nb.Caller[ei], nb.Callee[ei], nb.Label[ei] = int32(n), int32(e.Callee), e.Label
			nb.SiteEdges[nb.SiteStart[nb.NodeSites[n]+int32(j)]+fill[j]] = ei
			fill[j]++
			ei++
		}
	}
	nb.OutStart[nn], nb.NodeSites[nn], nb.SiteStart[ns] = ei, k, slot
	return nb
}

// NumEdges reports the number of edge ids.
func (nb *Numbering) NumEdges() int { return len(nb.Callee) }

// NumSites reports the number of site ids.
func (nb *Numbering) NumSites() int { return len(nb.SiteLabel) }

// Edge returns the edge with id i.
func (nb *Numbering) Edge(i int32) Edge {
	return Edge{Caller: NodeID(nb.Caller[i]), Callee: NodeID(nb.Callee[i]), Label: nb.Label[i]}
}

// Site returns the call site with id k.
func (nb *Numbering) Site(k int32) Site {
	return Site{Caller: NodeID(nb.Caller[nb.SiteEdges[nb.SiteStart[k]]]), Label: nb.SiteLabel[k]}
}

// Targets returns the edge ids of site k's dispatch targets, in insertion
// order. The returned slice must not be modified.
func (nb *Numbering) Targets(k int32) []int32 {
	return nb.SiteEdges[nb.SiteStart[k]:nb.SiteStart[k+1]]
}

// SiteIndex returns the id of site s, or -1 if the graph has no such site.
func (nb *Numbering) SiteIndex(s Site) int32 {
	if s.Caller < 0 || int(s.Caller) >= len(nb.NodeSites)-1 {
		return -1
	}
	lo, hi := nb.NodeSites[s.Caller], nb.NodeSites[s.Caller+1]
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if nb.SiteLabel[m] < s.Label {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < nb.NodeSites[s.Caller+1] && nb.SiteLabel[lo] == s.Label {
		return lo
	}
	return -1
}

// EdgeIndex returns the id of edge e, or -1 if the graph has no such edge.
func (nb *Numbering) EdgeIndex(e Edge) int32 {
	if k := nb.SiteIndex(e.Site()); k >= 0 {
		for _, i := range nb.Targets(k) {
			if nb.Callee[i] == int32(e.Callee) {
				return i
			}
		}
	}
	return -1
}
