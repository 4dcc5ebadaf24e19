package minivm

import (
	"fmt"
	"testing"
)

// Regression tests for probe-id freshness across plan swaps. An incremental
// analysis (Analysis.Extend) swaps the installed Probes and calls
// MarkAnalyzed mid-run; the dense per-method id tables (methodID, siteIDs)
// are caches against the previous resolver and must be rebuilt, including
// for calls already in flight: the id fields are re-read from the
// loadedMethod at fire time, so a frame entered under the old plan exits
// with ids the new resolver assigned.

// idRec is a Probes fake that assigns ids from a per-generation base (so
// stale ids from another generation are detectable) and records every event
// as a readable string.
type idRec struct {
	gen     string
	base    int32
	next    int32
	methods map[MethodRef]int32
	sites   map[SiteRef]int32
	events  []string
}

func newIDRec(gen string, base int32) *idRec {
	return &idRec{gen: gen, base: base, next: base,
		methods: make(map[MethodRef]int32), sites: make(map[SiteRef]int32)}
}

func (r *idRec) ResolveMethod(m MethodRef) int32 {
	id, ok := r.methods[m]
	if !ok {
		id = r.next
		r.next++
		r.methods[m] = id
	}
	return id
}

func (r *idRec) ResolveSite(s SiteRef) int32 {
	id, ok := r.sites[s]
	if !ok {
		id = r.next
		r.next++
		r.sites[s] = id
	}
	return id
}

func (r *idRec) rec(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *idRec) BeforeCall(site, target int32) uint8 {
	r.rec("%s before site=%d target=%d", r.gen, site, target)
	return 1
}

func (r *idRec) AfterCall(site, target int32, token uint8) {
	r.rec("%s after site=%d target=%d", r.gen, site, target)
}

func (r *idRec) Enter(m int32) uint8 { r.rec("%s enter m=%d", r.gen, m); return 1 }
func (r *idRec) Exit(m int32, token uint8) {
	r.rec("%s exit m=%d", r.gen, m)
}

// swapProgram drives the plan-swap scenario:
//
//	A.main:   call A.driver; emit end
//	A.driver: load Dyn; call Dyn.op (swap fires inside); call A.leaf; call Dyn.op
//	A.leaf:   work
//	Dyn.op (dynamic): emit inside
func swapProgram() *Program {
	p := &Program{
		Classes: []*Class{
			{Name: "A", Methods: []*Method{
				{Name: "main", Body: []Instr{Call("A", "driver"), Emit("end")}},
				{Name: "driver", Body: []Instr{
					LoadClass("Dyn"),
					Call("Dyn", "op"),
					Call("A", "leaf"),
					Call("Dyn", "op"),
				}},
				{Name: "leaf", Body: []Instr{Work(1)}},
			}},
		},
		Dynamic: []*Class{
			{Name: "Dyn", Methods: []*Method{
				{Name: "op", Body: []Instr{Emit("inside")}},
			}},
		},
		Entry: MethodRef{Class: "A", Method: "main"},
	}
	if err := p.Normalize(); err != nil {
		panic(err)
	}
	return p
}

// TestPlanSwapRefreshesProbeIDs swaps probes and absorbs a dynamic class
// while a call into that class is in flight, then checks every subsequent
// event fires on the new probes with the new resolver's ids —
// no event may carry an id from the old generation's range.
func TestPlanSwapRefreshesProbeIDs(t *testing.T) {
	prog := swapProgram()
	vm, err := NewVM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := newIDRec("old", 0)
	next := newIDRec("new", 100)
	vm.SetProbes(old)

	dyn := MethodRef{Class: "Dyn", Method: "op"}
	driver := MethodRef{Class: "A", Method: "driver"}
	swapped := false
	vm.OnEmit = func(vm *VM, m MethodRef, tag string) {
		if tag != "inside" || swapped {
			return
		}
		swapped = true
		// The emit runs inside Dyn.op with the call from A.driver in
		// flight — the moment Session.Adopt swaps plans after an Extend.
		vm.SetProbes(next)
		vm.MarkAnalyzed("Dyn")
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}

	// The old probes may have been asked to *resolve* the dynamic method
	// (a resolver answers "no payload" for methods outside its plan), but
	// its entry/exit must never have *fired* while the class was dynamic.
	oldDynEnter := fmt.Sprintf("old enter m=%d", old.methods[dyn])
	if contains(old.events, oldDynEnter) {
		t.Errorf("old probes saw dynamic entry %q", oldDynEnter)
	}

	// Every post-swap event arrives at the new probes with fresh ids where
	// the VM re-reads them from the loadedMethod tables: method ids on
	// enter/exit and the target id on call probes (both re-resolved by
	// MarkAnalyzed). A return-side *site* id may legitimately come from the
	// old generation — it was captured when the call began, and plans keep
	// site ids stable across epochs precisely so such tokens stay valid.
	if len(next.events) == 0 {
		t.Fatal("no events reached the new probes after the swap")
	}
	for _, ev := range next.events {
		var site, target, m int32 = -1, -1, -1
		inFlight := false
		if n, _ := fmt.Sscanf(ev, "new after site=%d target=%d", &site, &target); n == 2 {
			inFlight = true // may have begun before the swap
		} else if n, _ := fmt.Sscanf(ev, "new before site=%d target=%d", &site, &target); n == 2 {
		} else if n, _ := fmt.Sscanf(ev, "new enter m=%d", &m); n == 1 {
		} else if n, _ := fmt.Sscanf(ev, "new exit m=%d", &m); n == 1 {
		} else {
			t.Fatalf("unparsed event %q", ev)
		}
		for _, id := range []int32{target, m} {
			if id >= 0 && id < 100 {
				t.Errorf("event %q carries id %d from the old generation's range", ev, id)
			}
		}
		if !inFlight && site >= 0 && site < 100 {
			t.Errorf("fresh call %q carries stale site id %d", ev, site)
		}
	}

	// The call to Dyn.op in flight at the swap: its return-side probe must
	// report the target id the NEW resolver assigned when MarkAnalyzed
	// re-resolved the method — not the "no payload" id cached at call time.
	wantAfter := fmt.Sprintf("new after site=%d target=%d", old.sites[SiteRef{In: driver, Site: 0}], next.methods[dyn])
	if !contains(next.events, wantAfter) {
		t.Errorf("in-flight call's return probe missing or stale:\n  want %q\n  got  %v", wantAfter, next.events)
	}

	// The second call to Dyn.op (entirely post-swap) must fire its entry
	// and exit with the new resolver's method id: the absorbed class is
	// instrumented like a static one from MarkAnalyzed on.
	wantEnter := fmt.Sprintf("new enter m=%d", next.methods[dyn])
	wantExit := fmt.Sprintf("new exit m=%d", next.methods[dyn])
	if !contains(next.events, wantEnter) || !contains(next.events, wantExit) {
		t.Errorf("absorbed class's method did not fire entry/exit with new ids:\n  want %q and %q\n  got  %v",
			wantEnter, wantExit, next.events)
	}
}

func contains(events []string, want string) bool {
	for _, ev := range events {
		if ev == want {
			return true
		}
	}
	return false
}

// TestMarkAnalyzedBeforeRun is the quiescent half: absorbing before any
// call leaves no in-flight frames, so the entire run fires with the new
// ids and the dynamic method behaves exactly like a static one.
func TestMarkAnalyzedBeforeRun(t *testing.T) {
	prog := swapProgram()
	vm, err := NewVM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := newIDRec("new", 100)
	vm.SetProbes(rec)
	vm.MarkAnalyzed("Dyn")
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	dyn := MethodRef{Class: "Dyn", Method: "op"}
	wantEnter := fmt.Sprintf("new enter m=%d", rec.methods[dyn])
	n := 0
	for _, ev := range rec.events {
		if ev == wantEnter {
			n++
		}
	}
	if n != 2 {
		t.Errorf("absorbed-before-run method entered %d times with resolved id, want 2\nevents: %v", n, rec.events)
	}
}
