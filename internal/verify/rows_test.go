package verify

import (
	"slices"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/encoding"
)

// TestRowFaultsReported seeds faults into the rows the verifier shares with
// the compiled decoder — one row out of order, one forward edge dropped
// from its callee's row — and requires Check and CheckDelta each to report
// a structure finding and to return no certificate.
func TestRowFaultsReported(t *testing.T) {
	spec, plan := buildFile(t, "../../testdata/tasks.mv", cha.EncodingAll)
	clean := Check(spec, plan, Options{})
	if !clean.Clean() {
		t.Fatalf("fixture does not verify:\n%s", clean.Text())
	}
	// u is the first node whose in-row holds two slots, k its first slot.
	r := encoding.BuildRows(spec)
	u := 0
	for u+1 < len(r.InStart) && r.InStart[u+1]-r.InStart[u] < 2 {
		u++
	}
	if u+1 == len(r.InStart) {
		t.Fatal("fixture has no in-row with two slots")
	}
	k := r.InStart[u]
	faults := map[string]func(*encoding.Rows){
		"out-of-order": func(r *encoding.Rows) {
			r.InEdge[k], r.InEdge[k+1] = r.InEdge[k+1], r.InEdge[k]
			r.InCaller[k], r.InCaller[k+1] = r.InCaller[k+1], r.InCaller[k]
			r.InAV[k], r.InAV[k+1] = r.InAV[k+1], r.InAV[k]
		},
		"dropped-edge": func(r *encoding.Rows) {
			r.InEdge = slices.Delete(r.InEdge, int(k), int(k)+1)
			r.InCaller = slices.Delete(r.InCaller, int(k), int(k)+1)
			r.InAV = slices.Delete(r.InAV, int(k), int(k)+1)
			for w := u + 1; w < len(r.InStart); w++ {
				r.InStart[w]--
			}
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			rowsFault = fault
			defer func() { rowsFault = nil }()
			full := Check(spec, plan, Options{})
			delta, err := CheckDelta(clean.Certificate, spec, plan, nil, Options{})
			if err != nil {
				t.Fatalf("CheckDelta: %v", err)
			}
			for _, rep := range []*Report{full, delta} {
				if rep.Certificate != nil || !slices.ContainsFunc(rep.Findings, func(d Diagnostic) bool {
					return d.Check == "structure"
				}) {
					t.Errorf("seeded row fault not reported:\n%s", rep.Text())
				}
			}
		})
	}
}
