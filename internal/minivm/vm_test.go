package minivm

import (
	"errors"
	"strings"
	"testing"
)

// testProgram builds a small program:
//
//	Main.main: call Main.setup; loop 3 { vcall Shape.area }; emit end
//	Main.setup: work 10
//	Shape.area, Circle.area, Square.area (Circle/Square extend Shape)
//	Dyn.area (dynamic, extends Shape) — loaded by Main.load
func testProgram() *Program {
	p := &Program{
		Classes: []*Class{
			{Name: "Main", Methods: []*Method{
				{Name: "main", Body: []Instr{
					Call("Main", "setup"),
					Loop(3, VCall("Shape", "area")),
					Emit("end"),
				}},
				{Name: "setup", Body: []Instr{Work(10)}},
				{Name: "load", Body: []Instr{LoadClass("Dyn"), VCall("Shape", "area")}},
			}},
			{Name: "Shape", Methods: []*Method{
				{Name: "area", Body: []Instr{Work(1)}},
			}},
			{Name: "Circle", Super: "Shape", Methods: []*Method{
				{Name: "area", Body: []Instr{Work(2), Emit("circle")}},
			}},
			{Name: "Square", Super: "Shape", Methods: []*Method{
				{Name: "area", Body: []Instr{Work(2)}},
			}},
		},
		Dynamic: []*Class{
			{Name: "Dyn", Super: "Shape", Methods: []*Method{
				{Name: "area", Body: []Instr{Work(1)}},
			}},
		},
		Entry: MethodRef{Class: "Main", Method: "main"},
	}
	if err := p.Normalize(); err != nil {
		panic(err)
	}
	return p
}

func TestNormalizeAssignsUniqueSites(t *testing.T) {
	p := testProgram()
	main := p.Class("Main").Method("main")
	if main.Body[0].Site != 0 {
		t.Errorf("first call site = %d, want 0", main.Body[0].Site)
	}
	if main.Body[1].Body[0].Site != 1 {
		t.Errorf("loop call site = %d, want 1", main.Body[1].Body[0].Site)
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want string
	}{
		{"no entry", &Program{Classes: []*Class{{Name: "A"}}}, "no entry"},
		{"dup class", &Program{
			Classes: []*Class{{Name: "A"}, {Name: "A"}},
			Entry:   MethodRef{"A", "m"},
		}, "duplicate class"},
		{"dup method", &Program{
			Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m"}, {Name: "m"}}}},
			Entry:   MethodRef{"A", "m"},
		}, "twice"},
		{"bad super", &Program{
			Classes: []*Class{{Name: "A", Super: "Nope", Methods: []*Method{{Name: "m"}}}},
			Entry:   MethodRef{"A", "m"},
		}, "unknown class"},
		{"missing entry class", &Program{
			Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m"}}}},
			Entry:   MethodRef{"B", "m"},
		}, "entry class"},
		{"missing entry method", &Program{
			Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m"}}}},
			Entry:   MethodRef{"A", "nope"},
		}, "entry method"},
		{"negative loop", &Program{
			Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m", Body: []Instr{Loop(-1)}}}}},
			Entry:   MethodRef{"A", "m"},
		}, "negative"},
		{"empty call target", &Program{
			Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m", Body: []Instr{{Op: OpCall}}}}}},
			Entry:   MethodRef{"A", "m"},
		}, "empty target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.prog.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Normalize() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestRunNative(t *testing.T) {
	vm, err := NewVM(testProgram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var emits []string
	vm.OnEmit = func(_ *VM, m MethodRef, tag string) { emits = append(emits, m.String()+":"+tag) }
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(emits) == 0 || emits[len(emits)-1] != "Main.main:end" {
		t.Fatalf("emits = %v, want last Main.main:end", emits)
	}
	if vm.Steps == 0 {
		t.Fatal("Steps not counted")
	}
	if vm.Depth() != 0 {
		t.Fatalf("Depth after run = %d, want 0", vm.Depth())
	}
}

func TestDispatchSetBeforeAndAfterLoad(t *testing.T) {
	p := testProgram()
	p.Entry = MethodRef{"Main", "load"}
	vm, err := NewVM(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := vm.DispatchTargets("Shape", "area")
	if len(before) != 3 {
		t.Fatalf("static dispatch set = %v, want 3 targets", before)
	}
	if vm.Loaded("Dyn") {
		t.Fatal("Dyn loaded before execution")
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !vm.Loaded("Dyn") {
		t.Fatal("Dyn not loaded after execution")
	}
	after := vm.DispatchTargets("Shape", "area")
	if len(after) != 4 {
		t.Fatalf("post-load dispatch set = %v, want 4 targets", after)
	}
	if vm.Loads != 1 {
		t.Fatalf("Loads = %d, want 1", vm.Loads)
	}
}

func TestDispatchDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []string {
		vm, err := NewVM(testProgram(), seed)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		vm.OnEmit = func(v *VM, m MethodRef, tag string) {
			st := v.Stack()
			parts := make([]string, len(st))
			for i, r := range st {
				parts[i] = r.String()
			}
			order = append(order, strings.Join(parts, ">"))
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a := run(42)
	b := run(42)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("same seed, different traces:\n%v\n%v", a, b)
	}
}

func TestStackGroundTruth(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Call("B", "f")}},
			}},
			{Name: "B", Methods: []*Method{
				{Name: "f", Body: []Instr{Call("C", "g")}},
			}},
			{Name: "C", Methods: []*Method{
				{Name: "g", Body: []Instr{Emit("x")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []MethodRef
	vm.OnEmit = func(v *VM, _ MethodRef, _ string) { got = v.Stack() }
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	want := []MethodRef{{"A", "main"}, {"B", "f"}, {"C", "g"}}
	if len(got) != len(want) {
		t.Fatalf("stack = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stack[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Call("A", "main")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm.MaxDepth = 32
	err = vm.Run()
	if !errors.Is(err, ErrMaxDepth) {
		t.Fatalf("Run = %v, want ErrMaxDepth", err)
	}
}

func TestCallToUnloadedMethodFails(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Call("Ghost", "f")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err == nil || !strings.Contains(err.Error(), "unloaded method") {
		t.Fatalf("Run = %v, want unloaded-method error", err)
	}
}

func TestVCallNoImplementation(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{VCall("A", "ghost")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err == nil || !strings.Contains(err.Error(), "no loaded implementation") {
		t.Fatalf("Run = %v, want no-implementation error", err)
	}
}

// countingProbes records probe events for assertions. Method ids index
// methods; every site resolves to 0.
type countingProbes struct {
	before, after, enter, exit int
	dynamicEnters              int
	methods                    []MethodRef
}

func (c *countingProbes) ResolveMethod(m MethodRef) int32 {
	c.methods = append(c.methods, m)
	return int32(len(c.methods) - 1)
}
func (c *countingProbes) ResolveSite(SiteRef) int32 { return 0 }
func (c *countingProbes) BeforeCall(_, _ int32) uint8 {
	c.before++
	return 7
}
func (c *countingProbes) AfterCall(_, _ int32, tok uint8) {
	if tok != 7 {
		panic("token not threaded")
	}
	c.after++
}
func (c *countingProbes) Enter(m int32) uint8 {
	c.enter++
	if c.methods[m].Class == "Dyn" {
		c.dynamicEnters++
	}
	return 9
}
func (c *countingProbes) Exit(_ int32, tok uint8) {
	if tok != 9 {
		panic("token not threaded")
	}
	c.exit++
}

func TestProbesFireAndBalance(t *testing.T) {
	vm, err := NewVM(testProgram(), 3)
	if err != nil {
		t.Fatal(err)
	}
	probes := &countingProbes{}
	vm.SetProbes(probes)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if probes.before == 0 || probes.before != probes.after {
		t.Fatalf("before/after unbalanced: %d/%d", probes.before, probes.after)
	}
	if probes.enter == 0 || probes.enter != probes.exit {
		t.Fatalf("enter/exit unbalanced: %d/%d", probes.enter, probes.exit)
	}
	// main + setup + 3 area calls = 5 enters (entry method included).
	if probes.enter != 5 {
		t.Fatalf("enter = %d, want 5", probes.enter)
	}
}

func TestDynamicCodeNotInstrumented(t *testing.T) {
	p := testProgram()
	p.Entry = MethodRef{"Main", "load"}
	// Force dispatch to hit Dyn at least sometimes by looping.
	p.Classes[0].Methods[2].Body = []Instr{
		LoadClass("Dyn"),
		Loop(64, VCall("Shape", "area")),
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	probes := &countingProbes{}
	vm.SetProbes(probes)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if probes.dynamicEnters != 0 {
		t.Fatalf("Enter fired %d times for dynamically loaded methods", probes.dynamicEnters)
	}
	// BeforeCall still fires at the (instrumented) call site even when the
	// dynamic target is chosen — that is how the encoder sees the call.
	if probes.before != 64+1 { // 64 vcalls + 0... LoadClass isn't a call; plus nothing else
		t.Logf("before = %d (dispatch-dependent enters ok)", probes.before)
	}
}

func TestDuplicateStaticDynamicClassRejected(t *testing.T) {
	p := &Program{
		Classes: []*Class{{Name: "A", Methods: []*Method{{Name: "m"}}}},
		Dynamic: []*Class{{Name: "A"}},
		Entry:   MethodRef{"A", "m"},
	}
	if err := p.Normalize(); err == nil {
		// Normalize also catches the duplicate; either layer may reject.
		if _, err := NewVM(p, 0); err == nil {
			t.Fatal("duplicate static/dynamic class not rejected")
		}
	}
}

func TestProgramStringRoundTripShape(t *testing.T) {
	p := testProgram()
	s := p.String()
	for _, frag := range []string{
		"entry Main.main", "class Main {", "method main {",
		"call Main.setup", "vcall Shape.area", "loop 3 {",
		"emit end", "dynamic class Dyn extends Shape", "work 10",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestWorkAffectsSink(t *testing.T) {
	vm, err := NewVM(testProgram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Sink() == 0 {
		t.Fatal("work sink never written")
	}
}

func TestSpawnExecutorOrderAndNesting(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{
					Spawn("A", "t1"),
					Spawn("A", "t2"),
					Emit("main"),
				}},
				{Name: "t1", Body: []Instr{Spawn("A", "t3"), Emit("t1")}},
				{Name: "t2", Body: []Instr{Emit("t2")}},
				{Name: "t3", Body: []Instr{Emit("t3")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	vm.OnEmit = func(v *VM, _ MethodRef, tag string) {
		if v.Depth() != 1 {
			t.Fatalf("emit %s at depth %d; tasks must run on fresh stacks", tag, v.Depth())
		}
		order = append(order, tag)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO executor: main, then t1, t2, then t1's nested spawn t3.
	want := "main,t1,t2,t3"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("task order = %s, want %s", got, want)
	}
	if vm.Tasks != 3 {
		t.Fatalf("Tasks = %d, want 3", vm.Tasks)
	}
}

func TestSpawnUnloadedTaskFails(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Spawn("Ghost", "run")}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err == nil {
		t.Fatal("spawn of unloaded task succeeded")
	}
}

// taskProbes records BeginTask calls.
type taskProbes struct {
	countingProbes
	tasks []MethodRef
}

func (tp *taskProbes) BeginTask(entry MethodRef) { tp.tasks = append(tp.tasks, entry) }

func TestBeginTaskFires(t *testing.T) {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Spawn("A", "w")}},
				{Name: "w", Body: []Instr{Work(1)}},
			}},
		},
		Entry: MethodRef{"A", "main"},
	}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := &taskProbes{}
	vm.SetProbes(tp)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tp.tasks) != 2 || tp.tasks[0] != (MethodRef{"A", "main"}) || tp.tasks[1] != (MethodRef{"A", "w"}) {
		t.Fatalf("BeginTask calls = %v", tp.tasks)
	}
}

func TestSpawnValidation(t *testing.T) {
	p := &Program{
		Classes: []*Class{{Name: "A", Methods: []*Method{
			{Name: "m", Body: []Instr{{Op: OpSpawn}}},
		}}},
		Entry: MethodRef{"A", "m"},
	}
	if err := p.Normalize(); err == nil {
		t.Fatal("empty spawn target accepted")
	}
}
