package deltapath

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/verify"
)

// TestGoldenLint golden-tests dplint's two output surfaces over a set of
// deliberately defective analysis files, one fixture per verifier check.
// Each fixture under testdata/lint is a real .dpa artifact generated from a
// testdata program (or a minimal synthetic graph) with one seeded defect,
// and each golden under testdata/golden/lint pins the exact text and JSON
// report the verifier emits for it. Everything here is byte-deterministic
// — analysisio.Save and the verifier's rendering both are — so `-update`
// regenerates fixtures and goldens alike, and CI's freshness gate diffs
// both directories.
//
// The fixtures double as the negative half of the verifier's CLI contract:
// every one of them (except `clean`) must produce its named finding, so a
// verifier change that silently stops detecting a defect class turns this
// red even before the golden diff does.

// lintFixture describes one seeded-defect artifact: how to generate its
// bytes and which check (if any) its report must contain.
type lintFixture struct {
	name  string
	check string // "" for the clean fixture
	gen   func(t *testing.T) []byte
}

// lintSpec builds the analysis pieces for a testdata program exactly as
// dplint's .mv path does (KeepUnreachable instrumentation graph, CPT on).
func lintSpec(t *testing.T, name string) (*encoding.Spec, *cpt.Plan) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	build, err := cha.Build(prog, cha.Options{KeepUnreachable: true})
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	res, err := core.Encode(build.Graph, core.Options{})
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return res.Spec, cpt.Compute(build.Graph)
}

func saveLint(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := analysisio.Save(&buf, spec, plan); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recursionPushEdges returns the spec's recursion push edges in
// deterministic order, so mutations that pick "the first one" are stable
// across runs (map iteration order is not).
func recursionPushEdges(spec *encoding.Spec) []callgraph.Edge {
	var out []callgraph.Edge
	for e, kind := range spec.Push {
		if kind == encoding.PieceRecursion {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Callee < b.Callee
	})
	return out
}

func lintFixtures() []lintFixture {
	return []lintFixture{
		{
			// A defect-free artifact: pins the clean report shape.
			name: "clean",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "dynload.mv")
				return saveLint(t, spec, plan)
			},
		},
		{
			// Lower the first nonzero addition value whose decrement
			// collides two intervals — injectivity lost (Algorithm 1).
			name:  "interval-overlap",
			check: "intervals",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "dynload.mv")
				for k, av := range spec.SiteAV {
					if av == 0 {
						continue
					}
					spec.SiteAV[k] = av - 1
					if rep := verify.Check(spec, plan, verify.Options{}); !rep.Clean() {
						return saveLint(t, spec, plan)
					}
					spec.SiteAV[k] = av
				}
				t.Fatal("no lowered addition value produced a finding")
				return nil
			},
		},
		{
			// An addition value at the integer limit overflows every
			// positive interval width (Algorithm 2's capacity bound).
			name:  "anchor-capacity",
			check: "capacity",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "shapes.mv")
				// The first site with a non-push target: the first
				// site the analysis gives an addition value.
				nb := spec.Graph.Numbering()
			sites:
				for k := range spec.SiteAV {
					for _, e := range nb.Targets(int32(k)) {
						if _, pushed := spec.Push[nb.Edge(e)]; !pushed {
							spec.SiteAV[k] = math.MaxInt64
							break sites
						}
					}
				}
				return saveLint(t, spec, plan)
			},
		},
		{
			// A recursive cycle whose back-edge target is not an anchor:
			// the cycle crosses no piece boundary.
			name:  "recursion-unanchored",
			check: "recursion-anchored",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "recursion.mv")
				rec := recursionPushEdges(spec)
				if len(rec) == 0 {
					t.Fatal("recursion.mv produced no recursion push edge")
				}
				delete(spec.Anchors, rec[0].Callee)
				return saveLint(t, spec, plan)
			},
		},
		{
			// Drop a recursion push edge: the forward graph keeps the
			// cycle and decoding could not terminate. Not every
			// recursion-marked edge lies on a cycle, so take the first
			// (in deterministic order) whose removal actually breaks the
			// invariant.
			name:  "forward-cycle",
			check: "forward-acyclic",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "recursion.mv")
				for _, e := range recursionPushEdges(spec) {
					kind := spec.Push[e]
					delete(spec.Push, e)
					if rep := verify.Check(spec, plan, verify.Options{}); !rep.Clean() {
						return saveLint(t, spec, plan)
					}
					spec.Push[e] = kind
				}
				t.Fatal("no dropped recursion push edge produced a finding")
				return nil
			},
		},
		{
			// A per-edge spec whose virtual site gives its dispatch
			// targets different addition values — the single hardware
			// addition at the site cannot be right for both.
			name:  "virtual-site-av",
			check: "virtual-site-av",
			gen: func(t *testing.T) []byte {
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
					EdgeAV:  map[callgraph.Edge]uint64{ea: 0, eb: 1},
					Push:    map[callgraph.Edge]encoding.PieceKind{},
					Anchors: map[callgraph.NodeID]bool{},
				}
				return saveLint(t, spec, nil)
			},
		},
		{
			// A node outside every territory has no decodable encoding
			// space at all.
			name:  "coverage-hole",
			check: "coverage",
			gen: func(t *testing.T) []byte {
				g := callgraph.New()
				main := g.AddNode("app.Main.main", false)
				g.AddNode("app.Orphan.run", false)
				g.SetEntry(main)
				spec := &encoding.Spec{
					Graph:   g,
					EdgeAV:  map[callgraph.Edge]uint64{},
					Push:    map[callgraph.Edge]encoding.PieceKind{},
					Anchors: map[callgraph.NodeID]bool{},
				}
				return saveLint(t, spec, nil)
			},
		},
		{
			// An expected SID outside every set: Section 4.1's closure is
			// broken and the runtime would resync on a legal path.
			name:  "cpt-drift",
			check: "cpt-closure",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "shapes.mv")
				if len(plan.Expected) == 0 {
					t.Fatal("no sites")
				}
				plan.Expected[0] += int32(plan.NumSets)
				return saveLint(t, spec, plan)
			},
		},
		{
			// A partial write: the artifact ends mid-stream and must load
			// as corrupt, never verify clean or panic.
			name:  "truncated",
			check: "load",
			gen: func(t *testing.T) []byte {
				spec, plan := lintSpec(t, "dynload.mv")
				data := saveLint(t, spec, plan)
				return data[:len(data)/3]
			},
		},
	}
}

func TestGoldenLint(t *testing.T) {
	for _, fx := range lintFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			fixturePath := filepath.Join("testdata", "lint", fx.name+".dpa")
			data := fx.gen(t)

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fixturePath, data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				committed, err := os.ReadFile(fixturePath)
				if err != nil {
					t.Fatalf("%v (run `go test -run TestGoldenLint -update` to create)", err)
				}
				if !bytes.Equal(committed, data) {
					t.Fatalf("%s drifted from its generator: the encoder or serializer changed; review and run `go test -run TestGoldenLint -update`", fixturePath)
				}
			}

			// Verify the artifact exactly as `dplint <file>.dpa` does, and
			// pin both rendered surfaces.
			rep := verify.CheckBytes(data, verify.Options{})
			rep.Source = filepath.ToSlash(fixturePath)
			if fx.check == "" {
				if !rep.Clean() {
					t.Fatalf("clean fixture produced findings:\n%s", rep.Text())
				}
			} else {
				found := false
				for _, d := range rep.Findings {
					if d.Check == fx.check {
						found = true
					}
				}
				if !found {
					t.Fatalf("fixture did not produce a %q finding:\n%s", fx.check, rep.Text())
				}
			}

			for ext, got := range map[string]string{".txt": rep.Text(), ".json": rep.JSON()} {
				goldenPath := filepath.Join("testdata", "golden", "lint", fx.name+ext)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("%v (run `go test -run TestGoldenLint -update` to create)", err)
				}
				if got != string(want) {
					t.Errorf("dplint output drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
				}
			}
		})
	}
}
