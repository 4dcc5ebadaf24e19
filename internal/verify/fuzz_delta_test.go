package verify

import (
	"fmt"
	"path/filepath"
	"testing"

	"deltapath/internal/callgraph"
	"deltapath/internal/cha"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
)

func cloneSpec(s *encoding.Spec) *encoding.Spec {
	cp := &encoding.Spec{
		Graph:   s.Graph.Clone(),
		PerEdge: s.PerEdge,
		SiteAV:  make(map[callgraph.Site]uint64, len(s.SiteAV)),
		EdgeAV:  make(map[callgraph.Edge]uint64, len(s.EdgeAV)),
		Push:    make(map[callgraph.Edge]encoding.PieceKind, len(s.Push)),
		Anchors: make(map[callgraph.NodeID]bool, len(s.Anchors)),
	}
	for k, v := range s.SiteAV {
		cp.SiteAV[k] = v
	}
	for k, v := range s.EdgeAV {
		cp.EdgeAV[k] = v
	}
	for k, v := range s.Push {
		cp.Push[k] = v
	}
	for k, v := range s.Anchors {
		cp.Anchors[k] = v
	}
	return cp
}

// FuzzCheckDelta pins the incremental verifier's two-sided contract under
// adversarial inputs: the fuzz bytes drive structured mutations of the spec
// (the "what changed" side), the certificate (the "what is claimed" side),
// and the dirty list (the "what was admitted" side). Whatever the
// combination, CheckDelta must never panic, and whenever it returns a
// report that report must match the full verifier's finding-for-finding and
// stat-for-stat — in particular it must never accept a spec the full
// verifier rejects. Stale refusals are always legal (the caller falls back
// to Check); silent divergence never is. Both verifiers also answer exactly
// as their references do.
func FuzzCheckDelta(f *testing.F) {
	type base struct {
		spec *encoding.Spec
		plan *cpt.Plan
		cert *Certificate
	}
	var bases []base
	for _, name := range []string{"dynload.mv", "recursion.mv"} {
		spec, plan := buildFile(f, filepath.Join("..", "..", "testdata", name), cha.EncodingAll)
		rep := Check(spec, plan, Options{})
		if !rep.Clean() || rep.Certificate == nil {
			f.Fatalf("%s: base analysis did not certify", name)
		}
		bases = append(bases, base{spec, plan, rep.Certificate})
	}

	// Seeds mirror the committed corpus under testdata/fuzz/FuzzCheckDelta:
	// full reuse, a stale certificate (tampered node fingerprint), a
	// dirty-boundary frame violation (addition value changed, territory not
	// admitted dirty), honest growth with an admitted dirty start, and
	// tampered territory statistics.
	f.Add([]byte(""))
	f.Add([]byte("\x06\x00"))
	f.Add([]byte("\x00\x00"))
	f.Add([]byte("\x05\x00\x0b\x00"))
	f.Add([]byte("\x08\x01"))
	f.Add([]byte("\x02\x00\x03\x05\x04\x00\x07\x02\x09\x03\x0a\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := bases[len(data)%len(bases)]
		spec := cloneSpec(b.spec)
		cert := cloneCertificate(b.cert)
		var dirty []callgraph.NodeID

		const numOps = 12
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%numOps, int(data[i+1])
			switch op {
			case 0: // lower a site's addition value
				if sites := spec.Graph.Sites(); len(sites) > 0 {
					s := sites[arg%len(sites)]
					if spec.SiteAV[s] > 0 {
						spec.SiteAV[s]--
					}
				}
			case 1: // raise a site's addition value
				if sites := spec.Graph.Sites(); len(sites) > 0 {
					s := sites[arg%len(sites)]
					spec.SiteAV[s] += uint64(arg) + 1
				}
			case 2: // drop an anchor
				if an := sortedNodes(spec.Anchors); len(an) > 0 {
					delete(spec.Anchors, an[arg%len(an)])
				}
			case 3: // add an anchor
				nodes := spec.Graph.Nodes()
				spec.Anchors[nodes[arg%len(nodes)]] = true
			case 4: // drop a push kind
				if pe := sortedEdges(spec.Push); len(pe) > 0 {
					delete(spec.Push, pe[arg%len(pe)])
				}
			case 5: // grow the graph: a new callee off an existing node
				nodes := spec.Graph.Nodes()
				n := spec.Graph.AddNode(fmt.Sprintf("fz%d", i), false)
				spec.Graph.AddEdge(nodes[arg%len(nodes)], int32(2000+i), n)
			case 6: // certificate: flip a node fingerprint bit
				if len(cert.NodeFP) > 0 {
					cert.NodeFP[arg%len(cert.NodeFP)] ^= 1 << (arg % 63)
				}
			case 7: // certificate: flip a territory fingerprint bit
				if len(cert.Starts) > 0 {
					s := cert.Starts[arg%len(cert.Starts)]
					tc := cert.Territories[s]
					tc.FP ^= 1 << (arg % 63)
					cert.Territories[s] = tc
				}
			case 8: // certificate: tamper sealed territory statistics
				if len(cert.Starts) > 0 {
					s := cert.Starts[arg%len(cert.Starts)]
					tc := cert.Territories[s]
					tc.Holes += uint64(arg) + 1
					cert.Territories[s] = tc
				}
			case 9: // certificate: corrupt a member list
				if len(cert.Starts) > 0 {
					s := cert.Starts[arg%len(cert.Starts)]
					tc := cert.Territories[s]
					if arg%2 == 0 {
						tc.Members = append(append([]callgraph.NodeID(nil), tc.Members...),
							callgraph.NodeID(1<<28+arg))
					} else if len(tc.Members) > 0 {
						tc.Members = tc.Members[:len(tc.Members)-1]
					}
					cert.Territories[s] = tc
				}
			case 10: // certificate: drop a territory entry entirely
				if len(cert.Starts) > 0 {
					delete(cert.Territories, cert.Starts[arg%len(cert.Starts)])
				}
			case 11: // admit a start as dirty
				if starts := oraclePieceStarts(spec); len(starts) > 0 {
					dirty = append(dirty, starts[arg%len(starts)])
				}
			}
		}

		workers := len(data) % 3
		full := Check(spec, b.plan, Options{})
		assertMatchesOracle(t, "fuzz full", full, checkOracle(spec, b.plan, Options{}))
		drep, err := CheckDelta(cert, spec, b.plan, dirty, Options{Workers: workers})
		want, werr := checkDeltaOracle(cert, spec, b.plan, dirty, Options{})
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("CheckDelta error %v, oracle %v", err, werr)
		}
		if err != nil {
			return // stale refusal: the caller falls back to the full check
		}
		assertMatchesOracle(t, "fuzz delta", drep, want)
		if drep.Delta == nil {
			t.Fatal("delta report carries no DeltaInfo")
		}
		if drep.Clean() && !full.Clean() {
			t.Fatalf("CheckDelta accepted a spec the full verifier rejects:\n%s", full.Text())
		}
		if drep.JSON() == "" || drep.Text() == "" {
			t.Fatal("empty rendering")
		}
		assertSameVerdict(t, "fuzz", drep, full)
		again, err2 := CheckDelta(cert, spec, b.plan, dirty, Options{Workers: workers})
		if err2 != nil {
			t.Fatalf("nondeterministic staleness: %v", err2)
		}
		if drep.JSON() != again.JSON() {
			t.Fatalf("nondeterministic delta verification:\n%s\nvs\n%s", drep.JSON(), again.JSON())
		}
	})
}
