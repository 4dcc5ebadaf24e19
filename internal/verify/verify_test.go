package verify

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
)

// buildFile runs the full analysis pipeline over a testdata program and
// returns the pieces the verifier consumes.
func buildFile(t testing.TB, path string, setting cha.Setting) (*encoding.Spec, *cpt.Plan) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: parse: %v", path, err)
	}
	build, err := cha.Build(prog, cha.Options{Setting: setting, KeepUnreachable: true})
	if err != nil {
		t.Fatalf("%s: build: %v", path, err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatalf("%s: encode: %v", path, err)
	}
	return res.Spec, cpt.Compute(build.Graph)
}

func mvFiles(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mv"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	return paths
}

// TestCleanOnTestdata is the positive half of the verifier's contract:
// every analysis the real pipeline produces, over every testdata program
// and both encoding settings, must certify clean.
func TestCleanOnTestdata(t *testing.T) {
	for _, path := range mvFiles(t) {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			spec, plan := buildFile(t, path, setting)
			rep := Check(spec, plan, Options{})
			if !rep.Clean() {
				t.Errorf("%s (%v): expected clean, got:\n%s", path, setting, rep.Text())
			}
			if rep.Stats.Nodes == 0 || rep.Stats.PieceStarts == 0 {
				t.Errorf("%s (%v): degenerate stats %+v", path, setting, rep.Stats)
			}
		}
	}
}

// TestDetectsLoweredAV proves the injectivity check has teeth: lowering
// some site's nonzero addition value must collide two intervals somewhere.
func TestDetectsLoweredAV(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "dynload.mv"), cha.EncodingAll)
	found := false
	for _, s := range spec.Graph.Sites() {
		av, ok := spec.SiteAV[s]
		if !ok || av == 0 {
			continue
		}
		spec.SiteAV[s] = av - 1
		rep := Check(spec, plan, Options{})
		spec.SiteAV[s] = av
		for _, d := range rep.Findings {
			if d.Check == "intervals" {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no lowered addition value produced an intervals finding")
	}
}

// TestDetectsUnanchoredRecursion removes a recursive edge's target from
// the anchor set; the cycle through it then has no piece boundary.
func TestDetectsUnanchoredRecursion(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "recursion.mv"), cha.EncodingAll)
	var rec callgraph.Edge
	ok := false
	for e, kind := range spec.Push {
		if kind == encoding.PieceRecursion {
			rec, ok = e, true
			break
		}
	}
	if !ok {
		t.Fatal("recursion.mv produced no recursion push edge")
	}
	delete(spec.Anchors, rec.Callee)
	rep := Check(spec, plan, Options{})
	if !hasCheck(rep, "recursion-anchored") {
		t.Fatalf("expected recursion-anchored finding, got:\n%s", rep.Text())
	}
}

// TestDetectsUnbrokenCycle drops a recursion push edge entirely: the
// forward graph keeps the cycle and decoding could not terminate. Not
// every recursion-marked edge lies on a cycle (Algorithm 2 may mark an
// anchor-target edge conservatively), so each is tried in turn — at
// least one must be load-bearing.
func TestDetectsUnbrokenCycle(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "recursion.mv"), cha.EncodingAll)
	var recEdges []callgraph.Edge
	for e, kind := range spec.Push {
		if kind == encoding.PieceRecursion {
			recEdges = append(recEdges, e)
		}
	}
	if len(recEdges) == 0 {
		t.Fatal("recursion.mv produced no recursion push edge")
	}
	found := false
	for _, e := range recEdges {
		kind := spec.Push[e]
		delete(spec.Push, e)
		rep := Check(spec, plan, Options{})
		spec.Push[e] = kind
		if hasCheck(rep, "forward-acyclic") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no dropped recursion push edge produced a forward-acyclic finding")
	}
}

// TestDetectsCapacityOverflow pins the machine-integer bound: an addition
// value at the limit overflows every positive width.
func TestDetectsCapacityOverflow(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "shapes.mv"), cha.EncodingAll)
	for _, s := range spec.Graph.Sites() {
		if _, ok := spec.SiteAV[s]; ok {
			spec.SiteAV[s] = math.MaxInt64
			break
		}
	}
	rep := Check(spec, plan, Options{})
	if !hasCheck(rep, "capacity") {
		t.Fatalf("expected capacity finding, got:\n%s", rep.Text())
	}
}

// TestDetectsVirtualAVDisagreement builds a per-edge spec whose virtual
// site assigns its dispatch targets different addition values.
func TestDetectsVirtualAVDisagreement(t *testing.T) {
	g := callgraph.New()
	main := g.AddNode("app.Main.main", false)
	a := g.AddNode("app.A.f", false)
	b := g.AddNode("app.B.f", false)
	g.SetEntry(main)
	ea := g.AddEdge(main, 0, a)
	eb := g.AddEdge(main, 0, b)
	spec := &encoding.Spec{
		Graph:   g,
		PerEdge: true,
		SiteAV:  map[callgraph.Site]uint64{},
		EdgeAV:  map[callgraph.Edge]uint64{ea: 0, eb: 1},
		Push:    map[callgraph.Edge]encoding.PieceKind{},
		Anchors: map[callgraph.NodeID]bool{},
	}
	rep := Check(spec, nil, Options{})
	if !hasCheck(rep, "virtual-site-av") {
		t.Fatalf("expected virtual-site-av finding, got:\n%s", rep.Text())
	}
	spec.EdgeAV[eb] = 0
	if rep := Check(spec, nil, Options{}); !rep.Clean() {
		t.Fatalf("agreeing per-edge AVs should be clean, got:\n%s", rep.Text())
	}
}

// TestDetectsCoverageHole: a node outside every piece start's territory
// has no decodable encoding space. An anchor key set to false marks no
// anchor — the decoder never starts a piece there — so it must not cover
// the orphan either.
func TestDetectsCoverageHole(t *testing.T) {
	g := callgraph.New()
	main := g.AddNode("app.Main.main", false)
	orphan := g.AddNode("app.Orphan.run", false) // no in-edges, not an anchor
	g.SetEntry(main)
	for _, anchors := range []map[callgraph.NodeID]bool{{}, {orphan: false}} {
		spec := &encoding.Spec{
			Graph:   g,
			SiteAV:  map[callgraph.Site]uint64{},
			EdgeAV:  map[callgraph.Edge]uint64{},
			Push:    map[callgraph.Edge]encoding.PieceKind{},
			Anchors: anchors,
		}
		rep := Check(spec, nil, Options{})
		if !hasCheck(rep, "coverage") {
			t.Fatalf("anchors %v: expected coverage finding, got:\n%s", anchors, rep.Text())
		}
		if rep.Stats.PieceStarts != 1 {
			t.Errorf("anchors %v: %d piece starts, want the entry alone", anchors, rep.Stats.PieceStarts)
		}
	}
}

// TestDetectsCPTDrift covers both closure failures: a site whose targets
// carry a different SID than expected, and a site with no expectation.
func TestDetectsCPTDrift(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "shapes.mv"), cha.EncodingAll)
	sites := spec.Graph.Sites()
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	want := plan.Expected[sites[0]]
	plan.Expected[sites[0]] = want + int32(plan.NumSets) // out of any set
	rep := Check(spec, plan, Options{})
	if !hasCheck(rep, "cpt-closure") {
		t.Fatalf("expected cpt-closure finding for wrong SID, got:\n%s", rep.Text())
	}
	delete(plan.Expected, sites[0])
	rep = Check(spec, plan, Options{})
	if !hasCheck(rep, "cpt-closure") {
		t.Fatalf("expected cpt-closure finding for missing expectation, got:\n%s", rep.Text())
	}
}

// TestDetectsDanglingSpecEntries: spec maps referencing entities the graph
// does not have are structural corruption.
func TestDetectsDanglingSpecEntries(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "shapes.mv"), cha.EncodingAll)
	spec.SiteAV[callgraph.Site{Caller: 999, Label: 7}] = 3
	spec.Anchors[callgraph.NodeID(12345)] = true
	rep := Check(spec, plan, Options{})
	if !hasCheck(rep, "structure") {
		t.Fatalf("expected structure findings, got:\n%s", rep.Text())
	}
}

// TestCheckBytesRoundTrip: a saved clean analysis verifies clean from
// bytes; truncations yield load findings, never panics.
func TestCheckBytesRoundTrip(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "dynload.mv"), cha.EncodingAll)
	var buf bytes.Buffer
	if err := analysisio.Save(&buf, spec, plan); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if rep := CheckBytes(data, Options{}); !rep.Clean() {
		t.Fatalf("saved analysis not clean:\n%s", rep.Text())
	}
	for cut := 0; cut < len(data); cut += 17 {
		rep := CheckBytes(data[:cut], Options{})
		if rep.Clean() {
			t.Fatalf("truncation at %d verified clean", cut)
		}
	}
}

// TestDeterministicOutput: two runs over the same input render
// byte-identical text and JSON — the property golden tests rely on.
func TestDeterministicOutput(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "tasks.mv"), cha.EncodingAll)
	// Seed several defects at once so ordering across checks is exercised.
	delete(plan.Expected, spec.Graph.Sites()[0])
	spec.Anchors[callgraph.NodeID(4242)] = true
	r1 := Check(spec, plan, Options{})
	r2 := Check(spec, plan, Options{})
	if r1.Text() != r2.Text() || r1.JSON() != r2.JSON() {
		t.Fatalf("nondeterministic reports:\n%s\nvs\n%s", r1.Text(), r2.Text())
	}
	if r1.Clean() {
		t.Fatal("seeded defects verified clean")
	}
}

// TestRenderShape pins the two output surfaces' basic shape.
func TestRenderShape(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "exceptions.mv"), cha.EncodingAll)
	rep := Check(spec, plan, Options{})
	rep.Source = "exceptions.mv"
	if txt := rep.Text(); !strings.HasPrefix(txt, "exceptions.mv: clean — ") {
		t.Errorf("unexpected clean text: %q", txt)
	}
	if js := rep.JSON(); !strings.Contains(js, `"findings": []`) {
		t.Errorf("clean JSON should carry an empty findings array:\n%s", js)
	}
}

func hasCheck(rep *Report, check string) bool {
	for _, d := range rep.Findings {
		if d.Check == check {
			return true
		}
	}
	return false
}
