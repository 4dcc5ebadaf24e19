package analysisio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
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
	if !slices.Equal(bundle.Spec.SiteAV, res.Spec.SiteAV) {
		t.Fatalf("addition values changed: %v vs %v", bundle.Spec.SiteAV, res.Spec.SiteAV)
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

// TestSaveRefusesDanglingKeys: a site-indexed SiteAV or CPT Expected of the
// wrong length, and an EdgeAV or Push key that names no edge of the graph,
// are refused with an error naming them, rather than written under a count
// the entries do not match (which saved cleanly and then failed to load).
func TestSaveRefusesDanglingKeys(t *testing.T) {
	build, res, _ := roundTrip(t)
	nodes := callgraph.NodeID(build.Graph.NumNodes())
	sites := build.Graph.NumSites()
	edge := callgraph.Edge{Caller: 0, Callee: nodes - 1, Label: 4242}
	for _, c := range []struct {
		name, want string
		taint      func(*encoding.Spec, *cpt.Plan)
	}{
		{"SiteAV", fmt.Sprintf("SiteAV has %d entries for %d call sites", sites+1, sites),
			func(s *encoding.Spec, _ *cpt.Plan) { s.SiteAV = append(s.SiteAV, 1) }},
		{"EdgeAV", "EdgeAV key {Caller:0 Callee:" + fmt.Sprint(nodes-1) + " Label:4242}", func(s *encoding.Spec, _ *cpt.Plan) {
			s.EdgeAV = map[callgraph.Edge]uint64{edge: 1}
		}},
		{"Push", "Push key {Caller:0 Callee:" + fmt.Sprint(nodes-1) + " Label:4242}",
			func(s *encoding.Spec, _ *cpt.Plan) { s.Push[edge] = encoding.PieceRecursion }},
		{"CPT Expected", fmt.Sprintf("CPT Expected has %d entries for %d call sites", sites-1, sites),
			func(_ *encoding.Spec, p *cpt.Plan) { p.Expected = p.Expected[:sites-1] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := *res.Spec
			spec.SiteAV = slices.Clone(res.Spec.SiteAV)
			spec.Push = maps.Clone(res.Spec.Push)
			plan := cpt.Compute(build.Graph)
			c.taint(&spec, plan)
			var buf bytes.Buffer
			err := Save(&buf, &spec, plan)
			if err == nil {
				_, lerr := Load(&buf)
				t.Fatalf("Save accepted a dangling %s (Load: %v)", c.name, lerr)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not say %q", err, c.want)
			}
		})
	}
}

// TestLoadSiteSections: a site-keyed entry naming no call site of the
// graph makes the file corrupt, and an expectation table the file lists
// in part loads with -1 in the slots it leaves out.
func TestLoadSiteSections(t *testing.T) {
	build, res, _ := roundTrip(t)
	plan := cpt.Compute(build.Graph)
	plan.Expected[0] = -1
	var buf bytes.Buffer
	if err := Save(&buf, res.Spec, plan); err != nil {
		t.Fatal(err)
	}
	b, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.CPT.Expected, plan.Expected) || len(b.Spec.SiteAV) != build.Graph.NumSites() {
		t.Fatalf("expectations %v, want %v; %d addition values", b.CPT.Expected, plan.Expected, len(b.Spec.SiteAV))
	}

	// One call site, saved with addition value 3, then relabelled in the
	// SiteAV section only.
	g := callgraph.New()
	main := g.AddNode("main", false)
	leaf := g.AddNode("leaf", false)
	g.SetEntry(main)
	g.AddEdge(main, 7, leaf)
	spec := &encoding.Spec{Graph: g, SiteAV: []uint64{3}}
	buf.Reset()
	if err := Save(&buf, spec, cpt.Compute(g)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The SiteAV section is the last occurrence of caller 0, label 7,
	// value 3; a label of 8 names no site.
	i := bytes.LastIndex(data, []byte{1, 0, 7, 3})
	if i < 0 {
		t.Fatalf("SiteAV entry not found in %v", data)
	}
	bad := slices.Clone(data)
	bad[i+2] = 8
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "SiteAV key site(0@8) is not a call site") {
		t.Fatalf("Load of an unknown site = %v", err)
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
	liveDec := encoding.Compile(res.Spec)
	loadedDec := encoding.Compile(bundle.Spec)
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

// TestPutUvarintAllocs pins the writer's varint primitive to zero heap
// allocations: a .dpa of a 50k-node graph writes over a million varints.
func TestPutUvarintAllocs(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	v := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		putUvarint(w, v)
		v = v*31 + 1<<40
	})
	if allocs != 0 {
		t.Fatalf("putUvarint allocates %.2f times per call, want 0", allocs)
	}
}
