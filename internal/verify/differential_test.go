package verify

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

// assertMatchesOracle fails unless got renders and certifies exactly like
// the reference verifier's report.
func assertMatchesOracle(t *testing.T, ctx string, got, want *Report) {
	t.Helper()
	if got.JSON() != want.JSON() {
		t.Errorf("%s: JSON diverges from the oracle:\n%s\nvs oracle\n%s", ctx, got.JSON(), want.JSON())
	}
	if got.Text() != want.Text() {
		t.Errorf("%s: text diverges from the oracle:\n%s\nvs oracle\n%s", ctx, got.Text(), want.Text())
	}
	if !reflect.DeepEqual(got.Certificate, want.Certificate) {
		t.Errorf("%s: certificate diverges from the oracle", ctx)
	}
}

// checkAgainstOracle runs Check serially and on two workers and compares
// both with the reference verifier.
func checkAgainstOracle(t *testing.T, ctx string, spec *encoding.Spec, plan *cpt.Plan) {
	t.Helper()
	want := checkOracle(spec, plan, Options{})
	for _, workers := range []int{1, 2} {
		assertMatchesOracle(t, fmt.Sprintf("%s workers=%d", ctx, workers), Check(spec, plan, Options{Workers: workers}), want)
	}
}

// TestCheckMatchesOracle: the dense-view verifier reproduces the map-based
// reference byte for byte — reports, text and certificates — over the
// corpus, the suite programs with the most piece starts, a huge tier, the
// lint fixtures and the seeded defects.
func TestCheckMatchesOracle(t *testing.T) {
	for _, path := range mvFiles(t) {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			spec, plan := buildFile(t, path, setting)
			checkAgainstOracle(t, fmt.Sprintf("%s (%v)", filepath.Base(path), setting), spec, plan)
		}
	}
	for _, name := range []string{"sunflow", "mpegaudio", "crypto.rsa"} {
		spec, plan := suiteSpec(t, name)
		checkAgainstOracle(t, name, spec, plan)
	}
	nodes := 50_000
	if testing.Short() {
		nodes = 5_000
	}
	spec, plan := hugeSpec(t, nodes)
	checkAgainstOracle(t, fmt.Sprintf("huge-%d", nodes), spec, plan)

	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.dpa"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no lint fixtures: %v", err)
	}
	for _, p := range fixtures {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := analysisio.Load(bytes.NewReader(data))
		if err != nil {
			continue // a load finding, decided before either verifier runs
		}
		checkAgainstOracle(t, filepath.Base(p), b.Spec, b.CPT)
	}

	for _, d := range seededDefects(t) {
		checkAgainstOracle(t, d.name, d.spec, d.plan)
	}
}

// TestViewTopoOrder: the view's rank order is the order
// callgraph.TopoOrder yields, which fixes the order a territory's findings
// are emitted in, and the view finds the forward graph cyclic exactly when
// TopoOrder does.
func TestViewTopoOrder(t *testing.T) {
	specs := []defect{}
	for _, path := range mvFiles(t) {
		spec, plan := buildFile(t, path, cha.EncodingAll)
		specs = append(specs, defect{filepath.Base(path), spec, plan})
	}
	spec, plan := hugeSpec(t, 5_000)
	specs = append(specs, defect{"huge-5000", spec, plan})
	for _, d := range append(specs, seededDefects(t)...) {
		v := newView(d.spec)
		acyclic := v.topoOrder()
		want, err := d.spec.Graph.TopoOrder(oraclePushEdgeSet(d.spec))
		if acyclic != (err == nil) {
			t.Fatalf("%s: view acyclic=%v, TopoOrder error %v", d.name, acyclic, err)
		}
		for i, n := range want {
			if v.topo[i] != int32(n) {
				t.Fatalf("%s: rank %d is node %d, TopoOrder has %d", d.name, i, v.topo[i], n)
			}
		}
	}
}

type defect struct {
	name string
	spec *encoding.Spec
	plan *cpt.Plan
}

// seededDefects returns specs carrying one defect each, covering every
// finding the verifier can emit.
func seededDefects(t *testing.T) []defect {
	t.Helper()
	testdata := func(name string) string { return filepath.Join("..", "..", "testdata", name) }
	var out []defect
	add := func(name, file string, mutate func(spec *encoding.Spec, plan *cpt.Plan)) {
		spec, plan := buildFile(t, testdata(file), cha.EncodingAll)
		mutate(spec, plan)
		out = append(out, defect{name, spec, plan})
	}

	// Lowered addition values: one spec per lowerable site of dynload.mv.
	spec, _ := buildFile(t, testdata("dynload.mv"), cha.EncodingAll)
	for i, av := range spec.SiteAV {
		if av == 0 {
			continue
		}
		add(fmt.Sprintf("lowered-av-%d", i), "dynload.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
			spec.SiteAV[i]--
		})
	}
	add("capacity-overflow", "shapes.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
		spec.SiteAV[firstValued(spec)] = math.MaxInt64
	})
	// Unanchored recursion and unbroken cycles: every recursion push edge
	// of recursion.mv, its target unanchored or the edge dropped.
	spec, _ = buildFile(t, testdata("recursion.mv"), cha.EncodingAll)
	for _, e := range sortedEdges(spec.Push) {
		if spec.Push[e] != encoding.PieceRecursion {
			continue
		}
		add(fmt.Sprintf("unanchored-recursion-%v", e), "recursion.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
			delete(spec.Anchors, e.Callee)
		})
		add(fmt.Sprintf("unbroken-cycle-%v", e), "recursion.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
			delete(spec.Push, e)
		})
	}
	add("push-kind", "recursion.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
		for _, e := range sortedEdges(spec.Push) {
			spec.Push[e] = encoding.PieceAnchor
			return
		}
	})
	add("dangling-entries", "shapes.mv", func(spec *encoding.Spec, plan *cpt.Plan) {
		spec.SiteAV = append(spec.SiteAV, 3)
		spec.EdgeAV = map[callgraph.Edge]uint64{{Caller: 1, Callee: 2, Label: 4242}: 1}
		spec.Push[callgraph.Edge{Caller: 0, Callee: 1, Label: 4242}] = encoding.PiecePruned
		spec.Anchors[callgraph.NodeID(12345)] = true
		spec.Anchors[callgraph.NodeID(-3)] = false
		plan.Expected = append(plan.Expected, 0)
	})
	add("cpt-drift", "tasks.mv", func(spec *encoding.Spec, plan *cpt.Plan) {
		plan.Expected[0] += int32(plan.NumSets)
		plan.Expected[len(plan.Expected)-1] = -1
		plan.SID[0] = -1
	})
	// Every addition value zeroed: overlaps at many nodes of one
	// territory, reported in topological rank order.
	for _, file := range []string{"tasks.mv", "shapes.mv", "dynload.mv"} {
		add("zeroed-avs-"+file, file, func(spec *encoding.Spec, _ *cpt.Plan) {
			clear(spec.SiteAV)
		})
	}
	add("cpt-sid-table", "tasks.mv", func(_ *encoding.Spec, plan *cpt.Plan) {
		plan.SID = plan.SID[:len(plan.SID)-1]
	})
	add("false-anchor-keys", "shapes.mv", func(spec *encoding.Spec, _ *cpt.Plan) {
		for _, n := range spec.Graph.Nodes() {
			if !spec.Anchors[n] {
				spec.Anchors[n] = false
			}
		}
	})

	// Synthetic graphs: a coverage hole (an orphan root, its anchor key
	// false) and a per-edge spec whose virtual site disagrees.
	g := callgraph.New()
	main := g.AddNode("app.Main.main", false)
	orphan := g.AddNode("app.Orphan.run", false)
	g.SetEntry(main)
	out = append(out, defect{"coverage-hole", &encoding.Spec{
		Graph:   g,
		EdgeAV:  map[callgraph.Edge]uint64{},
		Push:    map[callgraph.Edge]encoding.PieceKind{},
		Anchors: map[callgraph.NodeID]bool{orphan: false},
	}, nil})
	g = callgraph.New()
	main = g.AddNode("app.Main.main", false)
	a := g.AddNode("app.A.f", false)
	b := g.AddNode("app.B.f", false)
	g.SetEntry(main)
	out = append(out, defect{"virtual-site-av", &encoding.Spec{
		Graph:   g,
		PerEdge: true,
		EdgeAV:  map[callgraph.Edge]uint64{g.AddEdge(main, 0, a): 0, g.AddEdge(main, 0, b): 1},
		Push:    map[callgraph.Edge]encoding.PieceKind{},
		Anchors: map[callgraph.NodeID]bool{},
	}, nil})
	return out
}

// TestCheckDeltaMatchesOracle replays the chains of
// TestCheckDeltaDifferentialCorpus through the incremental verifier and its
// reference: every answer — report, certificate, or stale refusal — agrees.
func TestCheckDeltaMatchesOracle(t *testing.T) {
	for _, path := range mvFiles(t) {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			name := fmt.Sprintf("%s/%v", filepath.Base(path), setting)
			t.Run(name, func(t *testing.T) {
				res, g := buildResult(t, path, setting)
				cert := Check(res.Spec, cpt.Compute(g), Options{}).Certificate
				for step := 0; step < 4; step++ {
					grown := growOnce(g, step)
					res2, stats, err := core.Extend(res, grown, core.Options{})
					if err != nil {
						t.Skipf("step %d: extend unsupported for this analysis: %v", step, err)
					}
					plan2 := cpt.Compute(grown)
					for _, dirty := range [][]callgraph.NodeID{stats.DirtyTerritoryList, nil} {
						want, werr := checkDeltaOracle(cert, res2.Spec, plan2, dirty, Options{})
						for _, workers := range []int{1, 2} {
							ctx := fmt.Sprintf("step %d dirty=%d workers=%d", step, len(dirty), workers)
							got, err := CheckDelta(cert, res2.Spec, plan2, dirty, Options{Workers: workers})
							if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
								t.Fatalf("%s: error %v, oracle %v", ctx, err, werr)
							}
							if err == nil {
								assertMatchesOracle(t, ctx, got, want)
							}
						}
					}
					full := Check(res2.Spec, plan2, Options{})
					cert, res, g = full.Certificate, res2, grown
				}
			})
		}
	}
}
