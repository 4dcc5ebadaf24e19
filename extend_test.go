package deltapath

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// mustParse parses src or fails the test.
func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// readTestdata reads a corpus file or fails the test.
func readTestdata(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// dynloadSrc reads the corpus program of Figure 6: a dynamic class Ext joins
// the Base.op dispatch mid-run, so epoch 0 pays a hazard push every time a
// vcall lands in Ext.op.
func dynloadSrc(t *testing.T) string {
	t.Helper()
	return readTestdata(t, "testdata/dynload.mv")
}

// TestExtendAbsorbsDynamicClass is the tentpole acceptance scenario: after
// absorbing Ext, steady-state runs of dynload.mv pay zero hazard pushes
// (epoch 0 pays one per dispatch into Ext) and contexts through Ext decode
// exactly, with no gaps.
func TestExtendAbsorbsDynamicClass(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Epoch(); got != 0 {
		t.Fatalf("fresh analysis at epoch %d, want 0", got)
	}

	// Epoch 0: some seed must dispatch into Ext and pay hazards.
	var hazardsBefore uint64
	for seed := uint64(0); seed < 8; seed++ {
		s, err := an.NewSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		hazardsBefore += s.Hazards()
	}
	if hazardsBefore == 0 {
		t.Fatal("no seed dispatched into the dynamic class at epoch 0 — the scenario tests nothing")
	}

	stats, err := an.Extend("Ext")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 {
		t.Fatalf("Extend published epoch %d, want 1", stats.Epoch)
	}
	if len(stats.NewClasses) != 1 || stats.NewClasses[0] != "Ext" {
		t.Fatalf("Extend absorbed %v, want [Ext]", stats.NewClasses)
	}
	if got := an.Epoch(); got != 1 {
		t.Fatalf("analysis at epoch %d after Extend, want 1", got)
	}
	if got := an.Absorbed(); len(got) != 1 || got[0] != "Ext" {
		t.Fatalf("Absorbed() = %v, want [Ext]", got)
	}
	if err := an.VerifyEncoding(); err != nil {
		t.Fatalf("extended encoding fails verification: %v", err)
	}

	// Post-extend steady state: zero hazards on every seed, and Ext frames
	// decode by name.
	sawExt := false
	for seed := uint64(0); seed < 8; seed++ {
		s, err := an.NewSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Epoch(); got != 1 {
			t.Fatalf("new session pinned epoch %d, want 1", got)
		}
		contexts, err := s.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if h := s.Hazards(); h != 0 {
			t.Fatalf("seed %d: %d hazard pushes after absorbing Ext, want 0", seed, h)
		}
		for _, c := range contexts {
			names, err := an.Decode(c)
			if err != nil {
				t.Fatalf("seed %d: decode at %s: %v", seed, c.At, err)
			}
			for _, n := range names {
				if n == "..." {
					t.Fatalf("seed %d: gap in post-extend context %v", seed, names)
				}
				if strings.HasPrefix(n, "Ext.") {
					sawExt = true
				}
			}
		}
	}
	if !sawExt {
		t.Fatal("no post-extend context ran through Ext")
	}
}

// TestExtendEpochPinning certifies the immutability contract: contexts and
// profiles captured at epoch 0 decode unchanged — against their own epoch —
// after the analysis moves on.
func TestExtendEpochPinning(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p0 := an.NewProfile(0)
	var oldContexts []Context
	var oldDecodes []string
	for seed := uint64(0); seed < 4; seed++ {
		contexts, err := an.Run(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range contexts {
			if c.Epoch() != 0 {
				t.Fatalf("epoch-0 context reports epoch %d", c.Epoch())
			}
			if !c.known {
				continue // emits inside unabsorbed Ext are not decodable at epoch 0
			}
			names, err := an.Decode(c)
			if err != nil {
				t.Fatal(err)
			}
			oldContexts = append(oldContexts, c)
			oldDecodes = append(oldDecodes, strings.Join(names, " > "))
			p0.Add(c)
		}
	}
	var dpp0 bytes.Buffer
	if err := p0.Save(&dpp0); err != nil {
		t.Fatal(err)
	}
	reportBefore, err := an.DecodeProfile(bytes.NewReader(dpp0.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}

	digest0 := an.GraphDigest()
	if _, err := an.Extend("Ext"); err != nil {
		t.Fatal(err)
	}
	if an.GraphDigest() == digest0 {
		t.Fatal("extension did not change the graph digest")
	}

	// Old contexts decode identically against their pinned epoch.
	for i, c := range oldContexts {
		names, err := an.Decode(c)
		if err != nil {
			t.Fatalf("epoch-0 context no longer decodes: %v", err)
		}
		if got := strings.Join(names, " > "); got != oldDecodes[i] {
			t.Fatalf("epoch-0 context decode changed:\n  before: %s\n  after:  %s", oldDecodes[i], got)
		}
	}
	// The epoch-0 profile still routes to epoch 0 and yields the same report.
	reportAfter, err := an.DecodeProfile(bytes.NewReader(dpp0.Bytes()), 4)
	if err != nil {
		t.Fatalf("epoch-0 profile refused after extension: %v", err)
	}
	if len(reportAfter.Rows) != len(reportBefore.Rows) {
		t.Fatalf("epoch-0 report changed: %d rows vs %d", len(reportAfter.Rows), len(reportBefore.Rows))
	}
	for i := range reportBefore.Rows {
		if reportBefore.Rows[i] != reportAfter.Rows[i] {
			t.Fatalf("epoch-0 report row %d changed: %+v vs %+v", i, reportBefore.Rows[i], reportAfter.Rows[i])
		}
	}

	// A fresh profile pins epoch 1 and refuses epoch-0 contexts.
	p1 := an.NewProfile(0)
	if p1.Epoch() != 1 {
		t.Fatalf("new profile at epoch %d, want 1", p1.Epoch())
	}
	if p1.Add(oldContexts[0]) {
		t.Fatal("epoch-1 profile accepted an epoch-0 context")
	}
	if p1.Skipped() != 1 {
		t.Fatalf("cross-epoch add not counted as skipped: %d", p1.Skipped())
	}
}

// TestExtendIdempotentAndClosure: re-absorbing is a no-op, and absorbing a
// subclass pulls in its dynamic superclass automatically.
func TestExtendIdempotentAndClosure(t *testing.T) {
	src := `
entry E.main
class E {
  method main { call E.go; load Mid; load Leaf; loop 2 { vcall R.op }; emit end }
  method go { vcall R.op }
}
class R { method op { emit rop } }
dynamic class Mid extends R { method op { call E.go2; emit mid } }
dynamic class Leaf extends Mid { method op { emit leaf } }
`
	// E.go2 does not exist; fix the body to something valid.
	src = strings.Replace(src, "call E.go2; ", "", 1)
	prog := mustParse(t, src)
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := an.Extend("Leaf")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Mid", "Leaf"}; strings.Join(stats.NewClasses, ",") != strings.Join(want, ",") {
		t.Fatalf("super-closure absorbed %v, want %v", stats.NewClasses, want)
	}
	if stats.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", stats.Epoch)
	}
	// Idempotent: same classes again, no new epoch.
	again, err := an.Extend("Leaf", "Mid")
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != 1 || len(again.NewClasses) != 0 {
		t.Fatalf("re-absorb published epoch %d with %v, want no-op at 1", again.Epoch, again.NewClasses)
	}
	// Absorbing a static class is likewise a no-op.
	static, err := an.Extend("R")
	if err != nil {
		t.Fatal(err)
	}
	if static.Epoch != 1 || len(static.NewClasses) != 0 {
		t.Fatalf("absorbing a static class published epoch %d with %v", static.Epoch, static.NewClasses)
	}
	if err := an.VerifyEncoding(); err != nil {
		t.Fatal(err)
	}
}

// TestExtendRejections: the incompatible modes and unknown classes fail
// loudly, and a failed Extend leaves the current epoch in place.
func TestExtendRejections(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))

	rta, err := Analyze(prog, Options{GraphBuilder: GraphRTA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rta.Extend("Ext"); err == nil {
		t.Fatal("Extend accepted under the RTA graph builder")
	}

	pruned, err := Analyze(prog, Options{TargetMethods: []string{"Sink.accept"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pruned.Extend("Ext"); err == nil {
		t.Fatal("Extend accepted under a pruned encoding")
	}

	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Extend("NoSuchClass"); err == nil {
		t.Fatal("Extend accepted an unknown class")
	}
	if got := an.Epoch(); got != 0 {
		t.Fatalf("failed Extend moved the epoch to %d", got)
	}
	if _, err := an.Extend("Ext"); err != nil {
		t.Fatalf("valid Extend after a failed one: %v", err)
	}
}

// TestSessionAdoptMidRun moves a running session to a new epoch from inside
// an OnEmit callback: the encoding state is rebuilt from the VM stack, and
// every subsequent context decodes exactly under the new epoch.
func TestSessionAdoptMidRun(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))
	for seed := uint64(0); seed < 8; seed++ {
		an, err := Analyze(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := an.NewSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		extended := false
		type ev struct {
			c     Context
			stack []MethodRef
		}
		var events []ev
		if _, err := s.Run(func(c Context) {
			events = append(events, ev{c: c, stack: append([]MethodRef(nil), s.VM().Stack()...)})
			if !extended && s.VM().Loaded("Ext") {
				extended = true
				if _, err := an.Extend("Ext"); err != nil {
					t.Errorf("mid-run Extend: %v", err)
					return
				}
				if !s.Adopt() {
					t.Error("Adopt reported no move after Extend")
				}
				if got := s.Epoch(); got != 1 {
					t.Errorf("session at epoch %d after Adopt, want 1", got)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if !extended {
			continue // this seed never loaded Ext
		}
		// Every context decodes against its own epoch, gap-free once Ext is
		// absorbed, and matches the VM's ground-truth stack.
		for _, e := range events {
			if !e.c.known {
				// Emits inside Ext before absorption are legitimately
				// outside the analysed program.
				continue
			}
			names, err := an.Decode(e.c)
			if err != nil {
				t.Fatalf("seed %d: decode epoch-%d context at %s: %v", seed, e.c.Epoch(), e.c.At, err)
			}
			analysed := func(m MethodRef) bool {
				_, ok := e.c.ep.build.NodeOf[m]
				return ok
			}
			want := renderStack(e.stack, analysed)
			if got := strings.Join(names, " > "); got != want {
				t.Fatalf("seed %d: epoch-%d context decodes to\n  %s\nVM stack says\n  %s", seed, e.c.Epoch(), got, want)
			}
		}
	}
}

// TestAdoptMidRunInstrumentsAbsorbedClass: after a mid-run Adopt absorbs
// Ext, Ext.op's entry and call sites fire, so its calls into analysed code
// encode instead of costing hazard pushes. The VM caches each method's
// probe bits, and Adopt must refresh them for the already loaded class.
func TestAdoptMidRunInstrumentsAbsorbedClass(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))
	sawExt := false
	for seed := uint64(0); seed < 8; seed++ {
		an, err := Analyze(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := an.NewSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		adopted, extAfter := false, 0
		if _, err := s.Run(func(c Context) {
			if adopted && c.At.Class == "Ext" {
				extAfter++
			}
			if !adopted && s.VM().Loaded("Ext") {
				if _, err := an.Extend("Ext"); err != nil {
					t.Fatalf("mid-run Extend: %v", err)
				}
				adopted = s.Adopt()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if !adopted || extAfter == 0 {
			continue // this seed never ran Ext after the swap
		}
		sawExt = true
		if h := s.Hazards(); h != 0 {
			t.Errorf("seed %d: %d hazard pushes after Adopt over %d emits in Ext, want 0", seed, h, extAfter)
		}
	}
	if !sawExt {
		t.Fatal("no seed ran Ext after a mid-run Adopt — the scenario tests nothing")
	}
}

// renderStack renders a ground-truth VM stack the way a decode should read:
// analysed frames by name, each maximal run of unanalysed frames as one gap.
func renderStack(stack []MethodRef, analysed func(MethodRef) bool) string {
	var out []string
	inGap := false
	for _, m := range stack {
		if analysed(m) {
			out = append(out, m.String())
			inGap = false
		} else if !inGap {
			out = append(out, "...")
			inGap = true
		}
	}
	return strings.Join(out, " > ")
}

// TestSaveAnalysisEpoch round-trips the epoch id through the .dpa format.
func TestSaveAnalysisEpoch(t *testing.T) {
	prog := mustParse(t, dynloadSrc(t))
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var v0 bytes.Buffer
	if err := an.SaveAnalysis(&v0); err != nil {
		t.Fatal(err)
	}
	d0, err := LoadDecoder(bytes.NewReader(v0.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d0.Epoch() != 0 {
		t.Fatalf("epoch-0 analysis loads as epoch %d", d0.Epoch())
	}

	if _, err := an.Extend("Ext"); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := an.SaveAnalysis(&v1); err != nil {
		t.Fatal(err)
	}
	d1, err := LoadDecoder(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Epoch() != 1 {
		t.Fatalf("epoch-1 analysis loads as epoch %d", d1.Epoch())
	}
	if err := d1.CheckAnalysis(an); err != nil {
		t.Fatalf("persisted epoch-1 analysis mismatches the live one: %v", err)
	}
	// The persisted epoch decodes an epoch-1 run end to end.
	contexts, err := an.Run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contexts {
		rec, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		live, err := an.Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := d1.DecodeBytes(rec)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(live, ">") != strings.Join(offline, ">") {
			t.Fatalf("offline decode %v differs from live %v", offline, live)
		}
	}
}

// TestExtendVerifyDeltaGate pins the incremental soundness gate: the first
// Extend has no predecessor certificate (epoch 0 publishes unverified) and
// proves the whole graph; every later Extend proves incrementally against
// the previous epoch's certificate and reports real reuse counters.
func TestExtendVerifyDeltaGate(t *testing.T) {
	src := `
entry E.main
class E {
  method main { call E.go; load Mid; load Leaf; loop 2 { vcall R.op }; emit end }
  method go { vcall R.op }
}
class R { method op { emit rop } }
dynamic class Mid extends R { method op { emit mid } }
dynamic class Leaf extends Mid { method op { emit leaf } }
`
	prog := mustParse(t, src)
	an, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := an.Extend("Mid")
	if err != nil {
		t.Fatal(err)
	}
	if first.VerifyDelta {
		t.Fatal("first Extend claims a delta proof: epoch 0 has no certificate")
	}
	if first.TotalTerritories == 0 || first.DirtyTerritories != first.TotalTerritories {
		t.Fatalf("full gate should prove every territory: %d/%d",
			first.DirtyTerritories, first.TotalTerritories)
	}
	second, err := an.Extend("Leaf")
	if err != nil {
		t.Fatal(err)
	}
	if !second.VerifyDelta {
		t.Fatal("second Extend fell back to a full proof: certificate went stale on a genuine delta")
	}
	if second.TotalTerritories == 0 {
		t.Fatal("delta gate reported no territories")
	}
	if second.DirtyTerritories > second.TotalTerritories {
		t.Fatalf("dirty %d > total %d", second.DirtyTerritories, second.TotalTerritories)
	}
	if second.ObligationsChecked > second.ObligationsTotal {
		t.Fatalf("obligations checked %d > total %d",
			second.ObligationsChecked, second.ObligationsTotal)
	}
	if second.VerifyNs <= 0 {
		t.Fatal("verify wall time not recorded")
	}
	if err := an.VerifyEncoding(); err != nil {
		t.Fatal(err)
	}
}
