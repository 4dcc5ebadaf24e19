package verify

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
)

// buildResult runs the analysis pipeline like buildFile but keeps the
// core.Result, whose incremental state core.Extend needs.
func buildResult(t testing.TB, path string, setting cha.Setting) (*core.Result, *callgraph.Graph) {
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
	return res, build.Graph
}

// growOnce clones g and applies one deterministic growth step, cycling
// through the delta shapes with distinct dirty-closure behavior: a fresh
// leaf chain, an edge between old nodes (possibly creating a cycle), and a
// virtual site gaining a dispatch target.
func growOnce(g *callgraph.Graph, step int) *callgraph.Graph {
	grown := g.Clone()
	entry, _ := grown.Entry()
	nodes := grown.Nodes()
	switch step % 3 {
	case 0: // new two-node chain off the entry
		a := grown.AddNode(fmt.Sprintf("dxa%d", step), false)
		b := grown.AddNode(fmt.Sprintf("dxb%d", step), false)
		grown.AddEdge(entry, int32(1000+step), a)
		grown.AddEdge(a, 0, b)
	case 1: // edge between existing nodes under a fresh label
		caller := nodes[len(nodes)/3]
		callee := nodes[(2*len(nodes))/3]
		grown.AddEdge(caller, int32(1000+step), callee)
	default: // an existing site gains a new target (dispatch growth)
		target := grown.AddNode(fmt.Sprintf("dxt%d", step), false)
		for _, n := range nodes {
			if out := grown.Out(n); len(out) > 0 {
				grown.AddEdge(n, out[0].Label, target)
				return grown
			}
		}
		grown.AddEdge(entry, int32(1000+step), target)
	}
	return grown
}

// assertSameVerdict fails unless the delta report matches the full report
// on everything a caller can observe: findings, statistics, and the
// successor certificate.
func assertSameVerdict(t *testing.T, ctx string, drep, full *Report) {
	t.Helper()
	if !reflect.DeepEqual(drep.Findings, full.Findings) {
		t.Errorf("%s: findings diverge:\ndelta: %v\nfull:  %v", ctx, drep.Findings, full.Findings)
	}
	if drep.Stats != full.Stats {
		t.Errorf("%s: stats diverge:\ndelta: %+v\nfull:  %+v", ctx, drep.Stats, full.Stats)
	}
	if !reflect.DeepEqual(drep.Certificate, full.Certificate) {
		t.Errorf("%s: successor certificates diverge", ctx)
	}
}

// TestCheckDeltaDifferentialCorpus is the incremental verifier's positive
// contract, corpus-wide: over every testdata program and both encoding
// settings, a chain of genuine core.Extend deltas must verify incrementally
// — no stale fallback — with findings, stats, and successor certificate
// identical to the full verifier's, for serial and parallel proving alike.
func TestCheckDeltaDifferentialCorpus(t *testing.T) {
	chains := 0
	for _, path := range mvFiles(t) {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			name := fmt.Sprintf("%s/%v", filepath.Base(path), setting)
			t.Run(name, func(t *testing.T) {
				res, g := buildResult(t, path, setting)
				rep := Check(res.Spec, cpt.Compute(g), Options{})
				if !rep.Clean() {
					t.Fatalf("base analysis not clean:\n%s", rep.Text())
				}
				cert := rep.Certificate
				if cert == nil {
					t.Fatal("clean Check produced no certificate")
				}
				for step := 0; step < 4; step++ {
					grown := growOnce(g, step)
					res2, stats, err := core.Extend(res, grown, core.Options{})
					if err != nil {
						t.Skipf("step %d: extend unsupported for this analysis: %v", step, err)
					}
					if stats.DirtyTerritories != len(stats.DirtyTerritoryList) {
						t.Fatalf("step %d: DirtyTerritories %d != len(list) %d",
							step, stats.DirtyTerritories, len(stats.DirtyTerritoryList))
					}
					plan2 := cpt.Compute(grown)
					full := Check(res2.Spec, plan2, Options{})
					var drep *Report
					for _, workers := range []int{1, 4} {
						ctx := fmt.Sprintf("step %d workers %d", step, workers)
						d, derr := CheckDelta(cert, res2.Spec, plan2,
							stats.DirtyTerritoryList, Options{Workers: workers})
						if derr != nil {
							t.Fatalf("%s: CheckDelta stale on a genuine extend: %v", ctx, derr)
						}
						if d.Delta == nil {
							t.Fatalf("%s: delta report carries no DeltaInfo", ctx)
						}
						if got := d.Delta.DirtyTerritories + d.Delta.ReusedTerritories; got != full.Stats.PieceStarts {
							t.Errorf("%s: dirty %d + reused %d != %d piece starts",
								ctx, d.Delta.DirtyTerritories, d.Delta.ReusedTerritories, full.Stats.PieceStarts)
						}
						assertSameVerdict(t, ctx, d, full)
						drep = d
					}
					if !drep.Clean() {
						t.Fatalf("step %d: genuine extend rejected:\n%s", step, drep.Text())
					}
					cert, res, g = drep.Certificate, res2, grown
					chains++
				}
			})
		}
	}
	if chains == 0 {
		t.Fatal("no extend chain ran: the differential corpus proved nothing")
	}
}

// TestCheckDeltaDefectEquivalence seeds the defects the whole-graph
// verifier is tested against, then checks the incremental verifier reaches
// the same verdict through the epoch gate's protocol: with every territory
// marked dirty CheckDelta must reproduce the full report exactly, and with
// an empty dirty list it must either match the full report or refuse with
// ErrStaleCertificate (never silently accept what the full verifier
// rejects).
func TestCheckDeltaDefectEquivalence(t *testing.T) {
	mutations := []struct {
		name  string
		apply func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan)
	}{
		{"lowered-av", func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) {
			for k, av := range spec.SiteAV {
				if av > 0 {
					spec.SiteAV[k] = av - 1
					return
				}
			}
			t.Skip("no nonzero addition value to lower")
		}},
		{"dropped-anchor", func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) {
			entry, _ := spec.Graph.Entry()
			for _, n := range spec.Graph.Nodes() {
				if spec.Anchors[n] && n != entry {
					delete(spec.Anchors, n)
					return
				}
			}
			t.Skip("no non-entry anchor to drop")
		}},
		{"dropped-push-kind", func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) {
			for e := range spec.Push {
				delete(spec.Push, e)
				return
			}
			t.Skip("no push edge to drop")
		}},
		{"dangling-site-av", func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) {
			spec.SiteAV = append(spec.SiteAV, 7)
		}},
		{"cpt-drift", func(t *testing.T, spec *encoding.Spec, plan *cpt.Plan) {
			if len(plan.Expected) == 0 {
				t.Skip("no sites")
			}
			plan.Expected[0] += int32(plan.NumSets)
		}},
	}
	for _, path := range []string{"dynload.mv", "recursion.mv", "shapes.mv"} {
		full := filepath.Join("..", "..", "testdata", path)
		for _, mut := range mutations {
			t.Run(path+"/"+mut.name, func(t *testing.T) {
				spec, plan := buildFile(t, full, cha.EncodingAll)
				base := Check(spec, plan, Options{})
				if !base.Clean() {
					t.Fatalf("base not clean:\n%s", base.Text())
				}
				cert := base.Certificate
				mut.apply(t, spec, plan)
				fullRep := Check(spec, plan, Options{})

				// Protocol step 1: the honest-gate path, everything dirty.
				drep, err := CheckDelta(cert, spec, plan, cert.Starts, Options{})
				if err != nil {
					t.Fatalf("all-dirty CheckDelta refused: %v", err)
				}
				assertSameVerdict(t, "all-dirty", drep, fullRep)
				if drep.Clean() != fullRep.Clean() {
					t.Fatalf("all-dirty verdict diverges: delta clean=%v full clean=%v",
						drep.Clean(), fullRep.Clean())
				}

				// Protocol step 2: an empty dirty list — the frame conditions
				// alone must force agreement or a stale refusal.
				drep2, err2 := CheckDelta(cert, spec, plan, nil, Options{})
				accepted := err2 == nil && drep2.Clean()
				if err2 != nil && !errors.Is(err2, ErrStaleCertificate) {
					t.Fatalf("unexpected error kind: %v", err2)
				}
				if err2 == nil {
					assertSameVerdict(t, "no-dirty", drep2, fullRep)
				}
				if accepted && !fullRep.Clean() {
					t.Fatalf("incremental verifier accepted a defect the full verifier rejects:\n%s",
						fullRep.Text())
				}
			})
		}
	}
}

// TestCheckDeltaStaleCertificates pins the refusal surface: damaged or
// mismatched certificates must yield ErrStaleCertificate, never a panic and
// never an acceptance.
func TestCheckDeltaStaleCertificates(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "dynload.mv"), cha.EncodingAll)
	base := Check(spec, plan, Options{})
	cert := base.Certificate
	if cert == nil {
		t.Fatal("no certificate")
	}
	somePositiveStart := func() callgraph.NodeID {
		for _, s := range cert.Starts {
			if len(cert.Territories[s].Members) > 0 {
				return s
			}
		}
		t.Fatal("no territory with members")
		return 0
	}

	cases := []struct {
		name   string
		tamper func(c *Certificate)
	}{
		{"nil-certificate", nil},
		{"maxid-mismatch", func(c *Certificate) { c.MaxID++ }},
		{"per-edge-mismatch", func(c *Certificate) { c.PerEdge = !c.PerEdge }},
		{"entry-moved", func(c *Certificate) { c.Entry++ }},
		{"node-count-grew", func(c *Certificate) { c.NumNodes = spec.Graph.NumNodes() + 1 }},
		{"fingerprints-truncated", func(c *Certificate) { c.NodeFP = c.NodeFP[:len(c.NodeFP)-1] }},
		{"territory-fp-flipped", func(c *Certificate) {
			s := somePositiveStart()
			tc := c.Territories[s]
			tc.FP ^= 1
			c.Territories[s] = tc
		}},
		{"territory-stats-tampered", func(c *Certificate) {
			s := somePositiveStart()
			tc := c.Territories[s]
			tc.Holes += 17 // sealed by the fingerprint: must be caught
			c.Territories[s] = tc
		}},
		{"member-out-of-range", func(c *Certificate) {
			s := somePositiveStart()
			tc := c.Territories[s]
			tc.Members = append(append([]callgraph.NodeID(nil), tc.Members...), callgraph.NodeID(1<<30))
			c.Territories[s] = tc
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *Certificate
			if tc.tamper != nil {
				cp := cloneCertificate(cert)
				tc.tamper(cp)
				c = cp
			}
			rep, err := CheckDelta(c, spec, plan, nil, Options{})
			if err == nil {
				t.Fatalf("tampered certificate accepted: %+v", rep.Delta)
			}
			if !errors.Is(err, ErrStaleCertificate) {
				t.Fatalf("want ErrStaleCertificate, got %v", err)
			}
		})
	}
}

func cloneCertificate(c *Certificate) *Certificate {
	cp := *c
	cp.NodeFP = append([]uint64(nil), c.NodeFP...)
	cp.Starts = append([]callgraph.NodeID(nil), c.Starts...)
	cp.Territories = make(map[callgraph.NodeID]TerritoryCert, len(c.Territories))
	for s, tc := range c.Territories {
		tc.Members = append([]callgraph.NodeID(nil), tc.Members...)
		cp.Territories[s] = tc
	}
	return &cp
}

// TestParallelCheckIdentity is the level-parallel contract: reports are
// byte-identical for every worker count, clean and defective inputs alike,
// certificates included.
func TestParallelCheckIdentity(t *testing.T) {
	for _, path := range mvFiles(t) {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			spec, plan := buildFile(t, path, setting)
			serial := Check(spec, plan, Options{Workers: 1})
			for _, workers := range []int{2, 4} {
				par := Check(spec, plan, Options{Workers: workers})
				if serial.Text() != par.Text() || serial.JSON() != par.JSON() {
					t.Errorf("%s (%v): workers=%d report differs from serial", path, setting, workers)
				}
				if !reflect.DeepEqual(serial.Certificate, par.Certificate) {
					t.Errorf("%s (%v): workers=%d certificate differs from serial", path, setting, workers)
				}
			}
		}
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.dpa"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no lint fixtures: %v", err)
	}
	for _, p := range fixtures {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		serial := CheckBytes(data, Options{Workers: 1})
		par := CheckBytes(data, Options{Workers: 4})
		if serial.Text() != par.Text() || serial.JSON() != par.JSON() {
			t.Errorf("%s: parallel report differs from serial", p)
		}
	}
}

// TestCertificateDeterministic: the certificate is a pure function of the
// spec — two runs, serial or parallel, agree exactly.
func TestCertificateDeterministic(t *testing.T) {
	spec, plan := buildFile(t, filepath.Join("..", "..", "testdata", "shapes.mv"), cha.EncodingAll)
	a := Check(spec, plan, Options{})
	b := Check(spec, plan, Options{Workers: 4})
	if a.Certificate == nil || b.Certificate == nil {
		t.Fatal("clean check produced no certificate")
	}
	if !reflect.DeepEqual(a.Certificate, b.Certificate) {
		t.Fatal("certificates differ between runs")
	}
}
