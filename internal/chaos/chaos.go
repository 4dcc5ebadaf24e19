// Package chaos is a deterministic fault-injection layer for the DeltaPath
// runtime: it wraps the probe stream between minivm and instrument.Encoder
// and injects seeded faults of the classes a production deployment would
// actually see — dropped probe events (a crashed agent thread, a lossy
// event transport), bit flips in the encoding ID (memory corruption,
// truncated persistence), piece-stack truncation, and call sites the
// static analysis never modelled. Everything is driven by a splitmix64
// seed, so every failing run replays exactly.
//
// The package is the adversary half of the repository's graceful-
// degradation story; the recovery half (invariant checker, stack-walk
// resync, health counters) lives in internal/instrument. Together they are
// exercised by the chaos suite in this package's tests: across ≥1000
// seeded runs over the workload corpus, every injected fault must be
// detected at the next emit point and healed such that the next decoded
// context is byte-identical to the stack-walk ground truth.
package chaos

import (
	"fmt"

	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
)

// Fault is one injectable fault class.
type Fault uint8

const (
	// DropCall suppresses a BeforeCall event (and, automatically, its
	// matching AfterCall): the call's addition or piece push never runs.
	DropCall Fault = iota
	// DropReturn suppresses an AfterCall event: the call's addition is
	// never undone, or its pushed piece never popped.
	DropReturn
	// DropEnter suppresses an Enter event (and its matching Exit): anchor
	// and hazard pushes at this entry never run.
	DropEnter
	// DropExit suppresses an Exit event: pieces pushed at entry leak.
	DropExit
	// FlipID flips one random bit of the live encoding ID.
	FlipID
	// TruncateStack drops the top element of the piece stack.
	TruncateStack
	// UnknownSite rewrites a call site's id to -1, the id of a site the
	// plan has no payload for, as if the event came from code the analysis
	// never saw: the site's instrumentation silently does not run.
	UnknownSite

	numFaults
)

func (f Fault) String() string {
	switch f {
	case DropCall:
		return "drop-call"
	case DropReturn:
		return "drop-return"
	case DropEnter:
		return "drop-enter"
	case DropExit:
		return "drop-exit"
	case FlipID:
		return "flip-id"
	case TruncateStack:
		return "truncate-stack"
	case UnknownSite:
		return "unknown-site"
	}
	return fmt.Sprintf("Fault(%d)", uint8(f))
}

// AllFaults returns every injectable fault class.
func AllFaults() []Fault {
	out := make([]Fault, 0, numFaults)
	for f := Fault(0); f < numFaults; f++ {
		out = append(out, f)
	}
	return out
}

// tokDropped marks a token whose BeforeCall/Enter was suppressed, so the
// matching AfterCall/Exit is suppressed too (otherwise the pair would be
// unbalanced in the opposite direction from the one injected). The encoder
// only uses token bits 0–3, so bit 7 is free for the wrapper.
const tokDropped uint8 = 1 << 7

// event classes, for fault eligibility.
type eventKind uint8

const (
	evCall eventKind = iota
	evReturn
	evEnter
	evExit
)

// eligible reports whether fault f can fire on an event of kind k.
// State faults (FlipID, TruncateStack) can fire anywhere; drop faults only
// on their own event class.
func eligible(f Fault, k eventKind) bool {
	switch f {
	case DropCall, UnknownSite:
		return k == evCall
	case DropReturn:
		return k == evReturn
	case DropEnter:
		return k == evEnter
	case DropExit:
		return k == evExit
	case FlipID, TruncateStack:
		return true
	}
	return false
}

// Config configures an Injector.
type Config struct {
	// Seed drives every random choice; same seed, same faults.
	Seed uint64
	// Rate is the per-event fault probability (0 disables random
	// injection).
	Rate float64
	// Faults restricts the injectable classes; nil means all.
	Faults []Fault
	// OneShotEvent, when nonzero, arms exactly one injection: OneShotFault
	// fires at the first eligible probe event whose 1-based index is at
	// least OneShotEvent, then the injector goes quiet. Used by the
	// property suite to attribute each detection to one known fault.
	OneShotEvent uint64
	OneShotFault Fault
}

// Injector wraps an Encoder's probe stream with seeded fault injection.
// It implements minivm.Probes and minivm.TaskProbes.
type Injector struct {
	enc    *instrument.Encoder
	rng    uint64
	rate   float64
	faults []Fault

	oneShotAt    uint64
	oneShotFault Fault
	oneShotDone  bool

	events   uint64
	injected [numFaults]uint64
}

// NewInjector wraps enc with fault injection under cfg.
func NewInjector(enc *instrument.Encoder, cfg Config) *Injector {
	faults := cfg.Faults
	if faults == nil {
		faults = AllFaults()
	}
	return &Injector{
		enc:          enc,
		rng:          cfg.Seed*2654435769 + 0x9e3779b97f4a7c15,
		rate:         cfg.Rate,
		faults:       faults,
		oneShotAt:    cfg.OneShotEvent,
		oneShotFault: cfg.OneShotFault,
		oneShotDone:  cfg.OneShotEvent == 0,
	}
}

// Events reports how many probe events passed through the injector.
func (in *Injector) Events() uint64 { return in.events }

// TotalInjected reports the total number of injected faults.
func (in *Injector) TotalInjected() uint64 {
	var t uint64
	for _, n := range in.injected {
		t += n
	}
	return t
}

// next is a splitmix64 step.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pick decides whether a fault fires on this event, and which.
func (in *Injector) pick(k eventKind) (Fault, bool) {
	in.events++
	if !in.oneShotDone && in.events >= in.oneShotAt && eligible(in.oneShotFault, k) {
		in.oneShotDone = true
		in.injected[in.oneShotFault]++
		return in.oneShotFault, true
	}
	if in.rate <= 0 {
		return 0, false
	}
	if float64(in.next()>>11)/(1<<53) >= in.rate {
		return 0, false
	}
	var cands []Fault
	for _, f := range in.faults {
		if eligible(f, k) {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	f := cands[in.next()%uint64(len(cands))]
	in.injected[f]++
	return f, true
}

// corruptState applies a state fault directly to the encoder's live state.
func (in *Injector) corruptState(f Fault) {
	st := in.enc.State()
	switch f {
	case FlipID:
		st.ID ^= 1 << (in.next() & 63)
	case TruncateStack:
		if n := len(st.Stack); n > 0 {
			st.Stack = st.Stack[:n-1]
		}
	}
}

// ResolveMethod implements minivm.Probes with the wrapped encoder's ids.
func (in *Injector) ResolveMethod(m minivm.MethodRef) int32 { return in.enc.ResolveMethod(m) }

// ResolveSite implements minivm.Probes with the wrapped encoder's ids.
func (in *Injector) ResolveSite(s minivm.SiteRef) int32 { return in.enc.ResolveSite(s) }

// BeforeCall implements minivm.Probes.
func (in *Injector) BeforeCall(site, target int32) uint8 {
	if f, ok := in.pick(evCall); ok {
		switch f {
		case DropCall:
			in.enc.Health.DroppedEvents++
			return tokDropped
		case UnknownSite:
			// A site the plan never modelled: the encoder finds no
			// payload and the event silently does nothing, exactly like a
			// call from unanalysed code.
			site = -1
		default:
			in.corruptState(f)
		}
	}
	return in.enc.BeforeCall(site, target)
}

// AfterCall implements minivm.Probes.
func (in *Injector) AfterCall(site, target int32, token uint8) {
	if token&tokDropped != 0 {
		return
	}
	if f, ok := in.pick(evReturn); ok {
		switch f {
		case DropReturn:
			in.enc.Health.DroppedEvents++
			return
		default:
			in.corruptState(f)
		}
	}
	in.enc.AfterCall(site, target, token)
}

// Enter implements minivm.Probes.
func (in *Injector) Enter(m int32) uint8 {
	if f, ok := in.pick(evEnter); ok {
		switch f {
		case DropEnter:
			in.enc.Health.DroppedEvents++
			return tokDropped
		default:
			in.corruptState(f)
		}
	}
	return in.enc.Enter(m)
}

// Exit implements minivm.Probes.
func (in *Injector) Exit(m int32, token uint8) {
	if token&tokDropped != 0 {
		return
	}
	if f, ok := in.pick(evExit); ok {
		switch f {
		case DropExit:
			in.enc.Health.DroppedEvents++
			return
		default:
			in.corruptState(f)
		}
	}
	in.enc.Exit(m, token)
}

// BeginTask implements minivm.TaskProbes: task boundaries are never
// injected — they are the VM's own scheduling, not probe traffic.
func (in *Injector) BeginTask(entry minivm.MethodRef) { in.enc.BeginTask(entry) }

var _ minivm.TaskProbes = (*Injector)(nil)
