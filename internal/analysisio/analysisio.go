// Package analysisio persists and restores a complete encoding analysis:
// the call graph, the addition values/anchors/push edges of the Spec, and
// the call-path-tracking SIDs. This is the artifact a deployment ships next
// to its logs — a collector records integer-sized context records
// (encoding.MarshalContext), and any host holding the analysis file can
// decode them exactly, with no access to the program and no re-analysis.
//
// Format: the header "DPA3\n", then a graph digest (node count, edge
// count, FNV-1a hash), then the analysis epoch (the number of incremental
// extensions behind the encoding — 0 for a whole-program analysis), then
// unsigned varints and length-prefixed strings. An epoch-0 analysis is
// written in the previous "DPA2\n" format (no epoch field), byte-identical
// with earlier builds; Load reads both. The file is self-contained and
// versioned; Load rejects unknown versions (with a typed VersionSkewError
// naming both sides), truncated input, and files whose persisted digest
// does not match the graph they carry (bit rot, partial writes). The digest
// also lets a caller refuse to bind a stale Spec to a newer call graph
// (CheckGraph) — the version-skew hazard of shipping analysis files
// separately from the programs that produced them.
package analysisio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"deltapath/internal/callgraph"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

const (
	magicV3 = "DPA3\n" // adds the analysis epoch after the digest
	magic   = "DPA2\n"
	magicV1 = "DPA1\n" // pre-digest format; recognized only to reject clearly
)

// VersionSkewError reports a wire-format version this build cannot read: a
// file written by a newer (or long-dead) format revision. It names both
// sides so the operator can tell which end to upgrade.
type VersionSkewError struct {
	// Found is the version tag in the file, e.g. "DPA1".
	Found string
	// Supported lists the versions this build reads, newest first.
	Supported []string
}

func (e *VersionSkewError) Error() string {
	return fmt.Sprintf("file version %s is not readable by this build (supported: %s)",
		e.Found, strings.Join(e.Supported, ", "))
}

// GraphDigest summarizes a call graph for compatibility checking: two
// graphs with equal digests have the same nodes (names, order, library
// flags), entry, context roots, and edges.
type GraphDigest struct {
	Nodes, Edges uint64
	Hash         uint64
}

func (d GraphDigest) String() string {
	return fmt.Sprintf("%d nodes/%d edges/%016x", d.Nodes, d.Edges, d.Hash)
}

// DigestGraph computes the digest of g. Iteration follows the same
// deterministic order Save uses, so a saved-then-loaded graph digests
// identically.
func DigestGraph(g *callgraph.Graph) GraphDigest {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	put(uint64(g.NumNodes()))
	for _, id := range g.Nodes() {
		n := g.Node(id)
		put(uint64(len(n.Name)))
		h.Write([]byte(n.Name))
		if n.Library {
			put(1)
		} else {
			put(0)
		}
	}
	if entry, ok := g.Entry(); ok {
		put(uint64(entry))
	}
	for _, r := range g.ContextRoots() {
		put(uint64(r))
	}
	var edges uint64
	for _, s := range g.Sites() {
		for _, e := range g.SiteTargets(s) {
			put(uint64(e.Caller))
			put(uint64(e.Label))
			put(uint64(e.Callee))
			edges++
		}
	}
	return GraphDigest{Nodes: uint64(g.NumNodes()), Edges: edges, Hash: h.Sum64()}
}

// Bundle is a restored analysis: everything needed to decode context
// records.
type Bundle struct {
	Graph *callgraph.Graph
	Spec  *encoding.Spec
	CPT   *cpt.Plan // nil if the analysis ran without call path tracking
	// Digest is the graph digest persisted with (and verified against)
	// the analysis.
	Digest GraphDigest
	// Epoch is the analysis epoch the file was saved at: how many
	// incremental extensions (Analysis.Extend) the encoding is behind the
	// original whole-program analysis. 0 for DPA2 files.
	Epoch uint64
}

// CheckGraph verifies that a live call graph matches the graph this
// analysis was computed over. Use it before binding the bundle's Spec to a
// freshly built graph: addition values are meaningful only relative to
// their graph, so decoding against a program that has since changed would
// silently produce wrong contexts.
func (b *Bundle) CheckGraph(g *callgraph.Graph) error {
	if got := DigestGraph(g); got != b.Digest {
		return fmt.Errorf("analysisio: graph mismatch: analysis was computed over %s, live graph is %s (stale analysis file?)",
			b.Digest, got)
	}
	return nil
}

// Save writes the analysis to w. cptPlan may be nil. It writes epoch 0 —
// the whole-program case; use SaveEpoch for extended analyses.
func Save(w io.Writer, spec *encoding.Spec, cptPlan *cpt.Plan) error {
	return SaveEpoch(w, spec, cptPlan, 0)
}

// SaveEpoch writes the analysis to w, stamped with its epoch. Epoch 0 is
// written in the DPA2 format (no epoch field) — byte-identical with
// pre-epoch builds, so existing files and golden bytes stay valid; a
// nonzero epoch selects DPA3, which carries the epoch after the digest.
func SaveEpoch(w io.Writer, spec *encoding.Spec, cptPlan *cpt.Plan, epoch uint64) error {
	g := spec.Graph
	// Only true anchor keys are written (a false key is no anchor), and the
	// count must match what is written, or Load misreads every later field.
	anchors := 0
	for id, on := range spec.Anchors {
		if id < 0 || int(id) >= g.NumNodes() {
			return fmt.Errorf("analysisio: anchor %d is not a node of the graph", id)
		}
		if on {
			anchors++
		}
	}
	bw := bufio.NewWriter(w)
	head := magic
	if epoch > 0 {
		head = magicV3
	}
	if _, err := bw.WriteString(head); err != nil {
		return err
	}
	dig := DigestGraph(g)
	putUvarint(bw, dig.Nodes)
	putUvarint(bw, dig.Edges)
	putUvarint(bw, dig.Hash)
	if epoch > 0 {
		putUvarint(bw, epoch)
	}
	putUvarint(bw, uint64(g.NumNodes()))
	for _, id := range g.Nodes() {
		n := g.Node(id)
		putString(bw, n.Name)
		putBool(bw, n.Library)
	}
	entry, ok := g.Entry()
	if !ok {
		return fmt.Errorf("analysisio: graph has no entry")
	}
	putUvarint(bw, uint64(entry))
	roots := g.ContextRoots()
	putUvarint(bw, uint64(len(roots)))
	for _, r := range roots {
		putUvarint(bw, uint64(r))
	}
	// Edges in deterministic site order.
	sites := g.Sites()
	var edgeCount uint64
	for _, s := range sites {
		edgeCount += uint64(len(g.SiteTargets(s)))
	}
	putUvarint(bw, edgeCount)
	for _, s := range sites {
		for _, e := range g.SiteTargets(s) {
			putUvarint(bw, uint64(e.Caller))
			putUvarint(bw, uint64(e.Label))
			putUvarint(bw, uint64(e.Callee))
		}
	}

	// Spec. Each keyed section is its map's length followed by the keys met
	// in site order, so a key that names no site or edge of the graph would
	// leave the count above the entries and the file unloadable: such a key
	// is refused once its section is written (w is then incomplete).
	putBool(bw, spec.PerEdge)
	putUvarint(bw, uint64(len(spec.SiteAV)))
	written := 0
	for _, s := range sites {
		if av, ok := spec.SiteAV[s]; ok {
			putUvarint(bw, uint64(s.Caller))
			putUvarint(bw, uint64(s.Label))
			putUvarint(bw, av)
			written++
		}
	}
	if written != len(spec.SiteAV) {
		return danglingSite(g, "SiteAV", spec.SiteAV)
	}
	// Per-edge AVs (PCCE mode).
	putUvarint(bw, uint64(len(spec.EdgeAV)))
	written = 0
	for _, s := range sites {
		for _, e := range g.SiteTargets(s) {
			if av, ok := spec.EdgeAV[e]; ok {
				putUvarint(bw, uint64(e.Caller))
				putUvarint(bw, uint64(e.Label))
				putUvarint(bw, uint64(e.Callee))
				putUvarint(bw, av)
				written++
			}
		}
	}
	if written != len(spec.EdgeAV) {
		return danglingEdge(g, "EdgeAV", spec.EdgeAV)
	}
	putUvarint(bw, uint64(len(spec.Push)))
	written = 0
	for _, s := range sites {
		for _, e := range g.SiteTargets(s) {
			if kind, ok := spec.Push[e]; ok {
				putUvarint(bw, uint64(e.Caller))
				putUvarint(bw, uint64(e.Label))
				putUvarint(bw, uint64(e.Callee))
				putUvarint(bw, uint64(kind))
				written++
			}
		}
	}
	if written != len(spec.Push) {
		return danglingEdge(g, "Push", spec.Push)
	}
	putUvarint(bw, uint64(anchors))
	for _, id := range g.Nodes() {
		if spec.Anchors[id] {
			putUvarint(bw, uint64(id))
		}
	}

	// CPT.
	if cptPlan == nil {
		putBool(bw, false)
	} else {
		putBool(bw, true)
		putUvarint(bw, uint64(len(cptPlan.SID)))
		for _, sid := range cptPlan.SID {
			putUvarint(bw, uint64(sid))
		}
		putUvarint(bw, uint64(cptPlan.NumSets))
		putUvarint(bw, uint64(len(cptPlan.Expected)))
		written = 0
		for _, s := range sites {
			if sid, ok := cptPlan.Expected[s]; ok {
				putUvarint(bw, uint64(s.Caller))
				putUvarint(bw, uint64(s.Label))
				putUvarint(bw, uint64(sid))
				written++
			}
		}
		if written != len(cptPlan.Expected) {
			return danglingSite(g, "CPT Expected", cptPlan.Expected)
		}
	}
	return bw.Flush()
}

// danglingSite names a key of m that is no call site of g.
func danglingSite[V any](g *callgraph.Graph, section string, m map[callgraph.Site]V) error {
	for s := range m {
		if len(g.SiteTargets(s)) == 0 {
			return fmt.Errorf("analysisio: %s key %v is not a call site of the graph", section, s)
		}
	}
	return fmt.Errorf("analysisio: %s keys and call sites disagree", section)
}

// danglingEdge names a key of m that is no edge of g.
func danglingEdge[V any](g *callgraph.Graph, section string, m map[callgraph.Edge]V) error {
	for e := range m {
		if !g.HasEdge(e) {
			return fmt.Errorf("analysisio: %s key %+v is not an edge of the graph", section, e)
		}
	}
	return fmt.Errorf("analysisio: %s keys and edges disagree", section)
}

// Load restores an analysis from r.
func Load(r io.Reader) (*Bundle, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("analysisio: %w", err)
	}
	var epochal bool
	switch string(head) {
	case magic:
	case magicV3:
		epochal = true
	case magicV1:
		return nil, fmt.Errorf("analysisio: %w (DPA1 predates graph digests; re-save the analysis with this build)",
			&VersionSkewError{Found: "DPA1", Supported: []string{"DPA3", "DPA2"}})
	default:
		if strings.HasPrefix(string(head), "DPA") {
			return nil, fmt.Errorf("analysisio: %w",
				&VersionSkewError{Found: strings.TrimSuffix(string(head), "\n"), Supported: []string{"DPA3", "DPA2"}})
		}
		return nil, fmt.Errorf("analysisio: bad magic %q (not an analysis file)", head)
	}
	d := &decoder{r: br}
	want := GraphDigest{Nodes: d.uvarint(), Edges: d.uvarint(), Hash: d.uvarint()}
	var epoch uint64
	if epochal {
		epoch = d.uvarint()
	}

	g := callgraph.New()
	nodes := d.uvarint()
	if d.err == nil && nodes > 1<<26 {
		return nil, fmt.Errorf("analysisio: implausible node count %d", nodes)
	}
	for i := uint64(0); i < nodes && d.err == nil; i++ {
		name := d.str()
		lib := d.boolean()
		g.AddNode(name, lib)
	}
	g.SetEntry(d.node(nodes))
	nroots := d.uvarint()
	for i := uint64(0); i < nroots && d.err == nil; i++ {
		g.MarkContextRoot(d.node(nodes))
	}
	nedges := d.uvarint()
	if d.err == nil && nedges > 1<<28 {
		return nil, fmt.Errorf("analysisio: implausible edge count %d", nedges)
	}
	for i := uint64(0); i < nedges && d.err == nil; i++ {
		caller := d.node(nodes)
		label := int32(d.uvarint())
		callee := d.node(nodes)
		g.AddEdge(caller, label, callee)
	}

	spec := &encoding.Spec{
		Graph:   g,
		SiteAV:  make(map[callgraph.Site]uint64),
		EdgeAV:  make(map[callgraph.Edge]uint64),
		Push:    make(map[callgraph.Edge]encoding.PieceKind),
		Anchors: make(map[callgraph.NodeID]bool),
	}
	spec.PerEdge = d.boolean()
	nav := d.uvarint()
	for i := uint64(0); i < nav && d.err == nil; i++ {
		s := callgraph.Site{Caller: d.node(nodes), Label: int32(d.uvarint())}
		spec.SiteAV[s] = d.uvarint()
	}
	neav := d.uvarint()
	for i := uint64(0); i < neav && d.err == nil; i++ {
		e := callgraph.Edge{Caller: d.node(nodes)}
		e.Label = int32(d.uvarint())
		e.Callee = d.node(nodes)
		spec.EdgeAV[e] = d.uvarint()
	}
	npush := d.uvarint()
	for i := uint64(0); i < npush && d.err == nil; i++ {
		e := callgraph.Edge{Caller: d.node(nodes)}
		e.Label = int32(d.uvarint())
		e.Callee = d.node(nodes)
		spec.Push[e] = encoding.PieceKind(d.uvarint())
	}
	nanch := d.uvarint()
	for i := uint64(0); i < nanch && d.err == nil; i++ {
		spec.Anchors[d.node(nodes)] = true
	}

	bundle := &Bundle{Graph: g, Spec: spec}
	if d.boolean() {
		plan := &cpt.Plan{Expected: make(map[callgraph.Site]int32)}
		nsid := d.uvarint()
		if d.err == nil && nsid != nodes {
			return nil, fmt.Errorf("analysisio: SID count %d != node count %d", nsid, nodes)
		}
		for i := uint64(0); i < nsid && d.err == nil; i++ {
			plan.SID = append(plan.SID, int32(d.uvarint()))
		}
		plan.NumSets = int(d.uvarint())
		nexp := d.uvarint()
		for i := uint64(0); i < nexp && d.err == nil; i++ {
			s := callgraph.Site{Caller: d.node(nodes), Label: int32(d.uvarint())}
			plan.Expected[s] = int32(d.uvarint())
		}
		bundle.CPT = plan
	}
	if d.err != nil {
		return nil, fmt.Errorf("analysisio: corrupt file: %w", d.err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("analysisio: %w", err)
	}
	// The persisted digest must match the graph actually restored: a
	// mismatch means the graph section was corrupted in storage, or the
	// file was assembled from mismatched pieces.
	if got := DigestGraph(g); got != want {
		return nil, fmt.Errorf("analysisio: corrupt file: persisted digest %s does not match restored graph %s",
			want, got)
	}
	bundle.Digest = want
	bundle.Epoch = epoch
	return bundle, nil
}

// --- primitive readers/writers ---

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putString(w *bufio.Writer, s string) {
	putUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func putBool(w *bufio.Writer, b bool) {
	if b {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) node(numNodes uint64) callgraph.NodeID {
	v := d.uvarint()
	if d.err == nil && v >= numNodes {
		d.err = fmt.Errorf("node id %d out of range (%d nodes)", v, numNodes)
		return 0
	}
	return callgraph.NodeID(v)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

func (d *decoder) boolean() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return false
	}
	return b != 0
}
