// Certificates make verification incremental: a clean Check additionally
// emits a Certificate — per-territory proof fingerprints plus the inputs the
// global checks consumed — and CheckDelta (delta.go) later re-proves only
// the territories an extension dirtied, reusing every fingerprint-matching
// territory's obligation verbatim.
//
// The fingerprint discipline is what makes reuse sound. Every node carries a
// structural fingerprint over exactly the inputs the territory obligations
// read from it: its anchor flag and, per outgoing edge in insertion order,
// the edge label, callee, push kind, and effective addition value. A
// territory's fingerprint then hashes its start, its member list, the
// members' node fingerprints, and the obligation's recorded statistics.
// Because a territory's bounded DFS visits only its members and retreats at
// member anchors, an unchanged member fingerprint set implies the identical
// traversal, the identical ICC recurrence, and therefore the identical
// (empty) finding list — the frame condition CheckDelta enforces before
// reusing anything.
package verify

import (
	"deltapath/internal/callgraph"
	"deltapath/internal/encoding"
)

// Certificate is the reusable proof state of one clean verification: enough
// to re-prove a grown spec by re-checking only dirty territories. It is
// immutable once returned and safe to share across goroutines and epochs.
type Certificate struct {
	// MaxID is the encoding-integer limit the capacity obligations were
	// proven under (after defaulting); a delta under a different limit
	// cannot reuse them.
	MaxID uint64
	// PerEdge records the addition-value mode the fingerprints hashed.
	PerEdge bool
	// Entry is the graph's entry node (territory starts depend on it).
	Entry callgraph.NodeID
	// NumNodes/NumEdges are the certified graph's size; an extension may
	// only grow both.
	NumNodes int
	NumEdges int
	// NodeFP holds one structural fingerprint per node, indexed by NodeID.
	NodeFP []uint64
	// Starts are the piece starts, in increasing node order.
	Starts []callgraph.NodeID
	// Territories maps each start to its certified obligation.
	Territories map[callgraph.NodeID]TerritoryCert
}

// TerritoryCert is one certified per-territory proof obligation: the
// membership its interval check covered and the statistics it contributed,
// sealed by a fingerprint over the obligation's inputs.
type TerritoryCert struct {
	// FP seals (start, members, member node fingerprints, stats): reuse is
	// legal only while it re-derives identically.
	FP uint64
	// Members is the territory's node set in increasing order (boundary
	// anchors included).
	Members []callgraph.NodeID
	// Intervals/Holes/MaxCap are the obligation's Stats contributions.
	Intervals int
	Holes     uint64
	MaxCap    uint64
}

// DeltaInfo reports how much proof work an incremental verification reused,
// attached to CheckDelta reports (and surfaced by dplint -delta and the
// Extend stats). Ratios over these counts are machine-independent: they are
// obligation counts, not timings.
type DeltaInfo struct {
	// DirtyTerritories were re-proven from scratch; ReusedTerritories were
	// accepted on their matching fingerprints.
	DirtyTerritories  int `json:"dirty_territories"`
	ReusedTerritories int `json:"reused_territories"`
	// ObligationsChecked counts the in-edge intervals actually re-derived;
	// ObligationsTotal what a full Check would derive.
	ObligationsChecked int `json:"obligations_checked"`
	ObligationsTotal   int `json:"obligations_total"`
}

// fnv64 is FNV-1a over machine words — the certificate's fingerprint hash.
// Hand-rolled so fingerprints never allocate (hash/fnv works on bytes).
type fnv64 uint64

const fnvOffset64 fnv64 = 14695981039346656037

func (h fnv64) word(v uint64) fnv64 {
	for i := 0; i < 8; i++ {
		h ^= fnv64(v & 0xff)
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// nodeFingerprints hashes, per node, every spec input the territory
// obligations read from that node: anchor flag, then each outgoing edge's
// label, callee, push kind, and effective addition value, in insertion
// order. Two specs whose fingerprints agree on a node set run byte-identical
// territory proofs over that set.
func (v *view) nodeFingerprints() []uint64 {
	fps := make([]uint64, v.n)
	for u := range fps {
		h := fnvOffset64
		if v.isAnchor(int32(u)) {
			h = h.word(1)
		} else {
			h = h.word(0)
		}
		for e := v.outStart[u]; e < v.outStart[u+1]; e++ {
			h = h.word(uint64(uint32(v.label[e])))
			h = h.word(uint64(uint32(v.callee[e])))
			h = h.word(1 + uint64(v.push[e])) // 1, or 2+kind for a push edge
			h = h.word(v.av[e])
		}
		fps[u] = uint64(h)
	}
	return fps
}

// territoryFP seals one obligation: start, member list, the members' node
// fingerprints, and the obligation's stats. Members must be sorted (they
// are, both when emitted and when stored).
func territoryFP(start callgraph.NodeID, members []callgraph.NodeID,
	nodeFP []uint64, intervals int, holes, maxCap uint64) uint64 {

	h := fnvOffset64.word(uint64(uint32(start))).word(uint64(len(members)))
	for _, m := range members {
		h = h.word(uint64(uint32(m))).word(nodeFP[m])
	}
	return uint64(h.word(uint64(intervals)).word(holes).word(maxCap))
}

// buildCertificate assembles the certificate of a clean check from the
// territory obligations (already proven, in start order).
func buildCertificate(spec *encoding.Spec, maxID uint64,
	nodeFP []uint64, starts []callgraph.NodeID, obs []territoryObligation) *Certificate {

	g := spec.Graph
	entry, _ := g.Entry()
	cert := &Certificate{
		MaxID:       maxID,
		PerEdge:     spec.PerEdge,
		Entry:       entry,
		NumNodes:    g.NumNodes(),
		NumEdges:    g.NumEdges(),
		NodeFP:      nodeFP,
		Starts:      starts,
		Territories: make(map[callgraph.NodeID]TerritoryCert, len(obs)),
	}
	for _, ob := range obs {
		cert.Territories[ob.start] = TerritoryCert{
			FP:        territoryFP(ob.start, ob.members, nodeFP, ob.intervals, ob.holes, ob.maxCap),
			Members:   ob.members,
			Intervals: ob.intervals,
			Holes:     ob.holes,
			MaxCap:    ob.maxCap,
		}
	}
	return cert
}
