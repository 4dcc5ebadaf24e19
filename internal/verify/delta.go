// Incremental verification: CheckDelta re-proves a grown spec against the
// certificate of its previously-verified ancestor, re-running only the
// territory obligations the extension dirtied. The global checks (structure,
// push kinds, virtual-site agreement, the full topological acyclicity
// witness, CPT closure) are linear-time and always re-run in full — only the
// per-territory interval proofs, the superlinear part, are reused.
//
// Soundness rests on the frame condition: a territory obligation may be
// reused only if its certified fingerprint re-derives identically from the
// current spec's node fingerprints (certificate.go). When it does, the
// territory's bounded DFS, ICC recurrence, and interval comparisons are
// byte-identical to what a full Check would run, so its (empty) finding list
// and statistics transfer verbatim. When it does not — or when the
// certificate predates an incompatible change of graph, limits, or mode —
// CheckDelta returns ErrStaleCertificate and the caller falls back to the
// full Check, so a stale or tampered certificate can cost time, never
// soundness.
package verify

import (
	"errors"
	"fmt"

	"deltapath/internal/callgraph"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

// ErrStaleCertificate reports that a certificate cannot prove the given
// spec incrementally: the spec changed in a way the certificate's frame
// conditions do not cover (or the certificate itself is damaged). The
// remedy is always a full Check.
var ErrStaleCertificate = errors.New("verify: certificate is stale for this spec")

func stalef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrStaleCertificate, fmt.Sprintf(format, args...))
}

// CheckDelta verifies spec incrementally against prev, the certificate of a
// previously-verified ancestor spec, re-proving only the territories named
// in dirty (piece-start node IDs, from core.ExtendStats.DirtyTerritoryList)
// plus any territory the certificate does not cover. Every global check
// still runs in full. On success the report is accept-equivalent to a full
// Check — identical findings and statistics — with Report.Delta describing
// the reuse; on ErrStaleCertificate the caller must fall back to Check.
// CheckDelta never panics, whatever the certificate contains.
func CheckDelta(prev *Certificate, spec *encoding.Spec, plan *cpt.Plan,
	dirty []callgraph.NodeID, opts Options) (*Report, error) {

	if prev == nil {
		return nil, stalef("no certificate")
	}
	if spec == nil || spec.Graph == nil {
		return nil, stalef("no spec/graph to verify")
	}
	g := spec.Graph
	maxID := opts.maxID()
	if prev.MaxID != maxID {
		return nil, stalef("certified under MaxID %d, verifying under %d", prev.MaxID, maxID)
	}
	if prev.PerEdge != spec.PerEdge {
		return nil, stalef("addition-value mode changed (per-edge %v -> %v)", prev.PerEdge, spec.PerEdge)
	}
	entry, ok := g.Entry()
	if !ok || entry != prev.Entry {
		return nil, stalef("entry node changed")
	}
	if g.NumNodes() < prev.NumNodes || g.NumEdges() < prev.NumEdges {
		return nil, stalef("graph shrank (%d/%d nodes, %d/%d edges): extensions are append-only",
			g.NumNodes(), prev.NumNodes, g.NumEdges(), prev.NumEdges)
	}
	if len(prev.NodeFP) != prev.NumNodes {
		return nil, stalef("certificate carries %d node fingerprints for %d nodes", len(prev.NodeFP), prev.NumNodes)
	}
	if err := g.Validate(); err != nil {
		return nil, stalef("graph does not validate: %v", err)
	}

	// The global, linear-time checks run in full, exactly as in Check; the
	// acyclicity witness is re-validated from scratch, since the dirty
	// territory proofs need the order regardless.
	rep := newReport(spec)
	delta := &DeltaInfo{}
	v := newView(spec)
	err := v.verify(rep, plan, maxID, func(nodeFP []uint64, starts []callgraph.NodeID) ([]territoryObligation, error) {
		return deltaObligations(prev, nodeFP, starts, dirty, delta, func(s []callgraph.NodeID) []territoryObligation {
			return v.proveTerritories(s, maxID, opts.Workers)
		})
	})
	if err != nil {
		return nil, err
	}
	rep.Delta = delta
	return rep, nil
}

// deltaObligations partitions the current piece starts into reused and
// re-proven obligations. A start is dirty — re-proven from scratch — when it
// is named in the dirty list or absent from the certificate; every other
// start must satisfy the frame condition (its certified fingerprint
// re-derives from the current node fingerprints) or the whole delta is
// stale. Certified territories for starts that no longer exist are ignored:
// the report concerns only the current starts. prove re-proves the dirty
// starts.
func deltaObligations(prev *Certificate, nodeFP []uint64, starts, dirty []callgraph.NodeID,
	delta *DeltaInfo, prove func([]callgraph.NodeID) []territoryObligation) ([]territoryObligation, error) {

	dirtySet := make(map[callgraph.NodeID]bool, len(dirty))
	for _, n := range dirty {
		dirtySet[n] = true
	}

	obs := make([]territoryObligation, len(starts))
	var proveIdx []int
	for i, s := range starts {
		tc, certified := prev.Territories[s]
		if !certified || dirtySet[s] {
			proveIdx = append(proveIdx, i)
			continue
		}
		// Frame condition. Bounds first: a damaged certificate must fail
		// cleanly, not index out of range.
		for _, m := range tc.Members {
			if m < 0 || int(m) >= len(nodeFP) {
				return nil, stalef("territory of node %d lists out-of-range member %d", s, m)
			}
		}
		if territoryFP(s, tc.Members, nodeFP, tc.Intervals, tc.Holes, tc.MaxCap) != tc.FP {
			return nil, stalef("territory of node %d changed but is not in the dirty list", s)
		}
		obs[i] = territoryObligation{
			start:     s,
			members:   tc.Members,
			intervals: tc.Intervals,
			holes:     tc.Holes,
			maxCap:    tc.MaxCap,
		}
	}

	// Re-prove the dirty territories on the full verifier's code path.
	proveStarts := make([]callgraph.NodeID, len(proveIdx))
	for k, i := range proveIdx {
		proveStarts[k] = starts[i]
	}
	proved := prove(proveStarts)
	for k, i := range proveIdx {
		obs[i] = proved[k]
	}

	delta.DirtyTerritories = len(proveIdx)
	delta.ReusedTerritories = len(starts) - len(proveIdx)
	for _, ob := range proved {
		delta.ObligationsChecked += ob.intervals
	}
	for _, ob := range obs {
		delta.ObligationsTotal += ob.intervals
	}
	return obs, nil
}
