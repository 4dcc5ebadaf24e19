package deltapath

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"deltapath/internal/analysisio"
	"deltapath/internal/callgraph"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/verify"
	"deltapath/internal/workload"
)

// TestScaleSmoke is the CI scale-smoke gate: one reduced huge-graph tier run
// end to end — generate, analyze twice independently, prove the serialized
// .dpa byte-identical, certify the spec with the verifier both serially and
// on 4 workers (byte-identical reports, under -race in CI), compile, and
// decode sampled contexts — every verdict the full 10⁵–10⁶-node curve
// (dpbench -experiment scale) relies on. SCALE_SMOKE_NODES overrides the
// tier size (CI uses 50000). The engine's comparison against the reference
// map sweep lives in internal/core (TestParallelSerialDifferential).
func TestScaleSmoke(t *testing.T) {
	nodes := 20_000
	if s := os.Getenv("SCALE_SMOKE_NODES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2_000 {
			t.Fatalf("SCALE_SMOKE_NODES=%q: need an integer >= 2000", s)
		}
		nodes = n
	} else if testing.Short() {
		nodes = 5_000
	}
	params := workload.HugeSmoke(nodes)
	g, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < nodes*9/10 || g.NumEdges() < 2*g.NumNodes() {
		t.Errorf("tier shape off target: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}

	res, err := core.Encode(g, core.Options{MeasureMemory: true})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	st := res.Stats
	if st == nil || st.SweptSites == 0 || st.TerritoryCells == 0 {
		t.Fatalf("engine stats missing: %+v", st)
	}
	if st.PeakBytes == 0 || st.BytesPerNode <= 0 {
		t.Errorf("memory budget not reported: %+v", st)
	}
	t.Logf("tier %s: %d nodes, %d edges, %d anchors, %d cells, %.0f B/node",
		params.Name, st.Nodes, st.Edges, len(res.Spec.Anchors), st.TerritoryCells, st.BytesPerNode)
	if len(res.Spec.Anchors) == 0 {
		t.Error("huge tier produced no anchors (hub rings and pockets missing?)")
	}

	again, err := core.Encode(g, core.Options{})
	if err != nil {
		t.Fatalf("second encode: %v", err)
	}

	// Byte-identity of the whole serialized analysis (spec + SIDs).
	plan := cpt.Compute(g)
	var pb, sb bytes.Buffer
	if err := analysisio.Save(&pb, res.Spec, plan); err != nil {
		t.Fatal(err)
	}
	if err := analysisio.Save(&sb, again.Spec, plan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), sb.Bytes()) {
		t.Errorf("two analyses of one graph wrote different .dpa bytes (%d vs %d bytes)",
			pb.Len(), sb.Len())
	}

	// Serial and parallel verification must agree byte for byte: same
	// rendered report, same JSON document, same certificate — the verifier's
	// analogue of the .dpa identity above. CI runs this under -race, so the
	// parallel proof pool is also exercised for data races here.
	rep := verify.Check(res.Spec, plan, verify.Options{})
	if !rep.Clean() {
		t.Errorf("verifier reported %d findings; first: %v", len(rep.Findings), rep.Findings[0])
	}
	prep := verify.Check(res.Spec, plan, verify.Options{Workers: 4})
	if rep.Text() != prep.Text() {
		t.Errorf("parallel verifier text diverged from serial:\n%s\nvs\n%s", prep.Text(), rep.Text())
	}
	rj, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(prep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, pj) {
		t.Error("parallel verifier JSON report diverged from serial")
	}
	if !reflect.DeepEqual(rep.Certificate, prep.Certificate) {
		t.Error("parallel verifier certificate diverged from serial")
	}
	if rep.Certificate == nil {
		t.Error("clean verification emitted no certificate")
	}

	// Decode sampled random-walk contexts through the compiled tables.
	dec := encoding.Compile(res.Spec)
	entry, _ := g.Entry()
	rnd := rand.New(rand.NewSource(1))
	var buf []encoding.Frame
	var path []callgraph.Edge
	for i := 0; i < 128; i++ {
		path = path[:0]
		cur := entry
		for d := 8 + rnd.Intn(120); d > 0; d-- {
			outs := g.Out(cur)
			if len(outs) == 0 {
				break
			}
			e := outs[rnd.Intn(len(outs))]
			path = append(path, e)
			cur = e.Callee
		}
		state, err := encoding.EncodePath(res.Spec, path)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if buf, err = dec.DecodeInto(buf[:0], state, cur); err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if len(buf) == 0 || buf[len(buf)-1].Node != cur {
			t.Fatalf("sample %d: decoded context does not end at %s", i, g.Name(cur))
		}
	}
}
