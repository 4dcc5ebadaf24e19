package analysisio

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
)

const src = `
entry A.main
class A {
  method main {
    load X
    spawn W.run
    loop 3 { vcall B.go }
    call A.rec
    emit top
  }
  method rec { rcall 5 A.rec; emit r }
}
class B { method go { call C.leaf; emit b } }
class B2 extends B { method go { emit b2 } }
class C { method leaf { emit leaf } }
class W { method run { call C.leaf; emit w } }
library class L { method l { work 1 } }
dynamic class X extends B { method go { call C.leaf; emit x } }
`

// roundTrip saves and reloads the analysis of src.
func roundTrip(t *testing.T) (*cha.Result, *core.Result, *Bundle) {
	t.Helper()
	prog := lang.MustParse(src)
	build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := cpt.Compute(build.Graph)
	var buf bytes.Buffer
	if err := Save(&buf, res.Spec, plan); err != nil {
		t.Fatal(err)
	}
	bundle, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return build, res, bundle
}

func TestRoundTripStructure(t *testing.T) {
	build, res, bundle := roundTrip(t)
	g, lg := build.Graph, bundle.Graph
	if lg.NumNodes() != g.NumNodes() || lg.NumEdges() != g.NumEdges() ||
		lg.NumSites() != g.NumSites() || lg.NumVirtualSites() != g.NumVirtualSites() {
		t.Fatalf("graph shape changed: %d/%d/%d/%d vs %d/%d/%d/%d",
			lg.NumNodes(), lg.NumEdges(), lg.NumSites(), lg.NumVirtualSites(),
			g.NumNodes(), g.NumEdges(), g.NumSites(), g.NumVirtualSites())
	}
	for _, id := range g.Nodes() {
		if g.Name(id) != lg.Name(id) {
			t.Fatalf("node %d name changed: %q vs %q", id, g.Name(id), lg.Name(id))
		}
		if g.Node(id).Library != lg.Node(id).Library {
			t.Fatalf("node %d library flag changed", id)
		}
	}
	e1, _ := g.Entry()
	e2, _ := lg.Entry()
	if e1 != e2 {
		t.Fatalf("entry changed: %d vs %d", e1, e2)
	}
	if len(lg.ContextRoots()) != len(g.ContextRoots()) {
		t.Fatalf("context roots changed")
	}
	// Spec contents identical.
	for s, av := range res.Spec.SiteAV {
		if bundle.Spec.SiteAV[s] != av {
			t.Fatalf("AV of %v changed", s)
		}
	}
	if len(bundle.Spec.Push) != len(res.Spec.Push) {
		t.Fatalf("push edges changed: %d vs %d", len(bundle.Spec.Push), len(res.Spec.Push))
	}
	if len(bundle.Spec.Anchors) != len(res.Spec.Anchors) {
		t.Fatalf("anchors changed")
	}
	if bundle.CPT == nil || bundle.CPT.NumSets == 0 {
		t.Fatalf("CPT plan lost")
	}
}

// TestSaveAnchorKeys: Save writes only true anchor keys, counted as
// written, so a spec carrying a false key reloads with the same anchors; an
// anchor key that is no node is refused rather than written.
func TestSaveAnchorKeys(t *testing.T) {
	build, res, _ := roundTrip(t)
	spec := res.Spec
	want := len(spec.Anchors)
	for _, id := range build.Graph.Nodes() {
		if !spec.Anchors[id] {
			spec.Anchors[id] = false
			break
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, spec, cpt.Compute(build.Graph)); err != nil {
		t.Fatal(err)
	}
	bundle, err := Load(&buf)
	if err != nil {
		t.Fatalf("reload of a spec with a false anchor key: %v", err)
	}
	if got := len(bundle.Spec.Anchors); got != want {
		t.Fatalf("reloaded %d anchors, want %d", got, want)
	}
	for id := range bundle.Spec.Anchors {
		if !spec.Anchors[id] {
			t.Fatalf("node %d reloaded as an anchor", id)
		}
	}

	spec.Anchors[callgraph.NodeID(build.Graph.NumNodes())] = true
	if err := Save(&bytes.Buffer{}, spec, nil); err == nil {
		t.Fatal("Save accepted an anchor that is not a node")
	}
}

// TestSaveRefusesDanglingKeys: a SiteAV, EdgeAV, Push or CPT Expected key
// that names no site or edge of the graph is refused with an error naming
// it, rather than written under a count the entries do not match (which
// saved cleanly and then failed to load).
func TestSaveRefusesDanglingKeys(t *testing.T) {
	build, res, _ := roundTrip(t)
	nodes := callgraph.NodeID(build.Graph.NumNodes())
	site := callgraph.Site{Caller: 0, Label: 4242}
	edge := callgraph.Edge{Caller: 0, Callee: nodes - 1, Label: 4242}
	for _, c := range []struct {
		name, key string
		taint     func(*encoding.Spec, *cpt.Plan)
	}{
		{"SiteAV", site.String(), func(s *encoding.Spec, _ *cpt.Plan) { s.SiteAV[site] = 1 }},
		{"EdgeAV", "Label:4242", func(s *encoding.Spec, _ *cpt.Plan) {
			s.EdgeAV = map[callgraph.Edge]uint64{edge: 1}
		}},
		{"Push", "Label:4242", func(s *encoding.Spec, _ *cpt.Plan) { s.Push[edge] = encoding.PieceRecursion }},
		{"CPT Expected", site.String(), func(_ *encoding.Spec, p *cpt.Plan) { p.Expected[site] = 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := *res.Spec
			spec.SiteAV = maps.Clone(res.Spec.SiteAV)
			spec.Push = maps.Clone(res.Spec.Push)
			plan := cpt.Compute(build.Graph)
			c.taint(&spec, plan)
			var buf bytes.Buffer
			err := Save(&buf, &spec, plan)
			if err == nil {
				_, lerr := Load(&buf)
				t.Fatalf("Save accepted a dangling %s key (Load: %v)", c.name, lerr)
			}
			if !strings.Contains(err.Error(), c.name+" key") || !strings.Contains(err.Error(), c.key) {
				t.Fatalf("error %q does not name the %s key %s", err, c.name, c.key)
			}
		})
	}
}

// TestDecodeWithLoadedAnalysis is the deployment scenario: context records
// produced by a live run decode identically under the reloaded analysis.
func TestDecodeWithLoadedAnalysis(t *testing.T) {
	build, res, bundle := roundTrip(t)
	prog := lang.MustParse(src)
	plan, err := instrument.NewPlan(build, res.Spec, cpt.Compute(build.Graph))
	if err != nil {
		t.Fatal(err)
	}
	enc := instrument.NewEncoder(plan)
	vm, err := minivm.NewVM(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	vm.SetProbes(enc)
	vm.SetInstrumented(plan.InstrumentedMethods())
	liveDec := encoding.NewDecoder(res.Spec)
	loadedDec := encoding.NewDecoder(bundle.Spec)
	var records [][]byte
	var live []string
	vm.OnEmit = func(_ *minivm.VM, m minivm.MethodRef, _ string) {
		node, known := build.NodeOf[m]
		if !known {
			return
		}
		st := enc.State().Snapshot()
		names, err := liveDec.DecodeNames(st, node)
		if err != nil {
			t.Fatalf("live decode: %v", err)
		}
		live = append(live, strings.Join(names, ">"))
		records = append(records, encoding.MarshalContext(st, node))
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	for i, rec := range records {
		st, end, err := encoding.UnmarshalContext(rec)
		if err != nil {
			t.Fatal(err)
		}
		names, err := loadedDec.DecodeNames(st, end)
		if err != nil {
			t.Fatalf("loaded-analysis decode: %v", err)
		}
		if got := strings.Join(names, ">"); got != live[i] {
			t.Fatalf("record %d decodes differently: %s vs %s", i, got, live[i])
		}
	}
}

func TestSaveWithoutCPT(t *testing.T) {
	prog := lang.MustParse(src)
	build, _ := cha.Build(prog, cha.Options{})
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res.Spec, nil); err != nil {
		t.Fatal(err)
	}
	bundle, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.CPT != nil {
		t.Fatal("phantom CPT plan appeared")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	prog := lang.MustParse(src)
	build, _ := cha.Build(prog, cha.Options{})
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res.Spec, cpt.Compute(build.Graph)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := [][]byte{
		nil,
		[]byte("nope"),
		data[:len(data)/2],                    // truncated
		append([]byte("DPXX\n"), data[5:]...), // bad magic
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt analysis accepted", i)
		}
	}
}
