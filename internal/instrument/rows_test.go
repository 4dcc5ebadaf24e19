package instrument

import (
	"os"
	"path/filepath"
	"testing"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/minivm"
	"deltapath/internal/workload"
)

// TestPlanPayloadsMatchRows holds the plan's payloads to the rows the
// decoder and the verifier share (encoding.BuildRows): for every suite and
// corpus program under both CHA settings, the encoder's BeforeCall at each
// site, on each dispatch target, must add the rows' addition value of that
// edge, or push a piece of the rows' push kind.
func TestPlanPayloadsMatchRows(t *testing.T) {
	programs := map[string]*minivm.Program{}
	for _, p := range workload.Suite() {
		prog, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		programs[p.Name] = prog
	}
	files, err := filepath.Glob("../../testdata/*.mv")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if programs[filepath.Base(f)], err = lang.Parse(string(src)); err != nil {
			t.Fatal(err)
		}
	}
	for name, prog := range programs {
		for _, setting := range []cha.Setting{cha.EncodingAll, cha.EncodingApplication} {
			build, err := cha.Build(prog, cha.Options{Setting: setting})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Encode(build.Graph, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewPlan(build, res.Spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows := encoding.BuildRows(res.Spec)
			nb := build.Graph.Numbering()
			enc := NewEncoder(plan)
			st := enc.State()
			checked := 0
			for id := range plan.fastSites {
				for _, e := range nb.Targets(nb.SiteIndex(plan.fastSites[id].site)) {
					before, depth := st.ID, len(st.Stack)
					token := enc.BeforeCall(int32(id), nb.Callee[e])
					if len(st.Stack) > depth {
						if kind := st.Stack[depth].Kind; rows.Push[e] != 1+uint16(kind) {
							t.Fatalf("%s/%v: edge %v pushes a %v piece, rows say push %d",
								name, setting, nb.Edge(e), kind, rows.Push[e])
						}
					} else if add := st.ID - before; rows.Push[e] != 0 || add != rows.AV[e] {
						t.Fatalf("%s/%v: edge %v adds %d, rows say AV %d push %d",
							name, setting, nb.Edge(e), add, rows.AV[e], rows.Push[e])
					}
					enc.AfterCall(int32(id), nb.Callee[e], token)
					checked++
				}
			}
			if checked != nb.NumEdges() {
				t.Fatalf("%s/%v: checked %d of %d edges", name, setting, checked, nb.NumEdges())
			}
		}
	}
}
