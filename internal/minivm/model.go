// Package minivm implements a small object-oriented virtual machine that
// plays the role the JVM plays in the DeltaPath paper: it runs programs made
// of classes with single inheritance, static and virtual method calls,
// loops, recursion, and — crucially — dynamic class loading, where classes
// unknown to static analysis join virtual dispatch mid-execution.
//
// The encoding techniques under study never see minivm internals: they see a
// call graph (built by package cha) and a stream of call/enter/exit events
// (delivered through the Probes interface), exactly as a Java agent sees
// bytecode call sites and method entries. Instrumentation is modelled by
// attaching encoder probes to the interpreter; uninstrumented code (library
// methods under selective encoding, dynamically loaded classes) simply has
// no payload, just as un-rewritten bytecode has none.
package minivm

import (
	"fmt"
	"strings"
)

// MethodRef names a method globally: "Class.method".
type MethodRef struct {
	Class  string
	Method string
}

func (r MethodRef) String() string { return r.Class + "." + r.Method }

// SiteRef names a call site globally: a labelled position inside a method.
type SiteRef struct {
	In   MethodRef
	Site int32
}

func (s SiteRef) String() string { return fmt.Sprintf("%s@%d", s.In, s.Site) }

// Opcode enumerates minivm instructions.
type Opcode uint8

const (
	// OpCall invokes a statically bound method (Class.Name).
	OpCall Opcode = iota
	// OpVCall invokes a virtually dispatched method: the target is chosen
	// at runtime among all loaded classes at or below Class that declare
	// Name. This is the minivm analog of invokevirtual.
	OpVCall
	// OpLoop repeats Body N times.
	OpLoop
	// OpEmit marks a program point whose calling context is of interest
	// (the analog of a system call or logging statement); the VM reports
	// it through the OnEmit callback.
	OpEmit
	// OpLoadClass dynamically loads the named class, making its methods
	// visible to virtual dispatch from then on. Loading an already-loaded
	// class is a no-op, like Class.forName on a loaded class.
	OpLoadClass
	// OpWork burns N units of synthetic computation. It gives benchmark
	// programs a realistic ratio of application work to call overhead so
	// that instrumentation slowdowns are meaningful.
	OpWork
	// OpThrow raises an exception that unwinds the stack to the nearest
	// enclosing OpTry handler. Instrumentation must stay balanced across
	// the unwinding — the minivm analog of the try/finally blocks a
	// bytecode rewriter wraps around instrumented calls.
	OpThrow
	// OpTry executes Body; if an exception unwinds out of it, control
	// transfers to Handler and the exception is consumed.
	OpTry
	// OpSpawn submits Class.Name as a task to the VM's executor. Tasks
	// run to completion after the spawning code finishes (a deterministic
	// run-to-completion executor, the analog of a thread pool draining a
	// queue); each runs on a fresh stack with fresh per-thread encoding
	// state, so calling contexts root at the task's entry method.
	OpSpawn
)

// Instr is one minivm instruction. Which fields are meaningful depends on Op:
//
//	OpCall, OpVCall:  Site, Class, Name, and optionally Depth
//	OpLoop:           N, Body
//	OpEmit:           Tag
//	OpLoadClass:      Class
//	OpWork:           N
//	OpThrow:          Tag (the exception tag), optionally Depth (thrown
//	                  only when the call depth is at least Depth — the
//	                  stand-in for a data-dependent error condition)
//	OpTry:            Body, Handler
//
// Depth, when positive, makes a call conditional: it executes only while
// the current call depth is below Depth. It is the minivm stand-in for a
// recursion base case (the VM has no data-dependent branches); static
// analysis still sees an unconditional call edge, which is exactly the
// conservative treatment a real analyser applies to a guarded call.
type Instr struct {
	Op      Opcode
	Site    int32
	Class   string
	Name    string
	N       int
	Depth   int
	Tag     string
	Body    []Instr
	Handler []Instr
}

// Call builds an OpCall instruction (site label assigned by Normalize).
func Call(class, method string) Instr { return Instr{Op: OpCall, Class: class, Name: method} }

// CallBounded builds an OpCall executed only while the call depth is below
// limit — the bounded form used to express terminating recursion.
func CallBounded(class, method string, limit int) Instr {
	return Instr{Op: OpCall, Class: class, Name: method, Depth: limit}
}

// VCallBounded is CallBounded for virtual calls.
func VCallBounded(class, method string, limit int) Instr {
	return Instr{Op: OpVCall, Class: class, Name: method, Depth: limit}
}

// VCall builds an OpVCall instruction (site label assigned by Normalize).
func VCall(class, method string) Instr { return Instr{Op: OpVCall, Class: class, Name: method} }

// Loop builds an OpLoop instruction.
func Loop(n int, body ...Instr) Instr { return Instr{Op: OpLoop, N: n, Body: body} }

// Emit builds an OpEmit instruction.
func Emit(tag string) Instr { return Instr{Op: OpEmit, Tag: tag} }

// LoadClass builds an OpLoadClass instruction.
func LoadClass(class string) Instr { return Instr{Op: OpLoadClass, Class: class} }

// Work builds an OpWork instruction.
func Work(n int) Instr { return Instr{Op: OpWork, N: n} }

// Throw builds an OpThrow instruction.
func Throw(tag string) Instr { return Instr{Op: OpThrow, Tag: tag} }

// ThrowIfDeeper builds an OpThrow that only fires at call depth >= limit.
func ThrowIfDeeper(tag string, limit int) Instr {
	return Instr{Op: OpThrow, Tag: tag, Depth: limit}
}

// Try builds an OpTry instruction.
func Try(body, handler []Instr) Instr { return Instr{Op: OpTry, Body: body, Handler: handler} }

// Spawn builds an OpSpawn instruction.
func Spawn(class, method string) Instr { return Instr{Op: OpSpawn, Class: class, Name: method} }

// Method is a method body. Site labels within one method are unique after
// Normalize runs (they are the analog of bytecode indices of invoke
// instructions).
type Method struct {
	Name string
	Body []Instr

	// numSites is one past the largest site label in Body, set by
	// Normalize: the size of the method's call-site table in a VM.
	numSites int32
}

// Class is a minivm class: a name, an optional superclass, a library flag
// (for the encoding-application setting of Section 4.2), and methods.
type Class struct {
	Name    string
	Super   string // "" if the class has no superclass
	Library bool
	Methods []*Method
}

// Method returns the declared method with the given name, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Program is a complete minivm program: the statically loaded classes (the
// ones static analysis sees), the dynamically loadable classes (invisible to
// static analysis until an OpLoadClass executes), and the entry method.
type Program struct {
	Classes []*Class
	Dynamic []*Class
	Entry   MethodRef
}

// Class returns the static or dynamic class with the given name, or nil.
func (p *Program) Class(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	for _, c := range p.Dynamic {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Normalize assigns unique, stable site labels to every call instruction of
// every method (numbering them in body order, including inside loops), and
// validates basic structural properties. It must be called once after a
// program is constructed and before analysis or execution.
func (p *Program) Normalize() error {
	seen := make(map[string]bool)
	all := make([]*Class, 0, len(p.Classes)+len(p.Dynamic))
	all = append(all, p.Classes...)
	all = append(all, p.Dynamic...)
	for _, c := range all {
		if c.Name == "" {
			return fmt.Errorf("minivm: class with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("minivm: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		mseen := make(map[string]bool)
		for _, m := range c.Methods {
			if m.Name == "" {
				return fmt.Errorf("minivm: class %q has a method with empty name", c.Name)
			}
			if mseen[m.Name] {
				return fmt.Errorf("minivm: class %q declares method %q twice", c.Name, m.Name)
			}
			mseen[m.Name] = true
			var next int32
			if err := numberSites(m.Body, &next); err != nil {
				return fmt.Errorf("minivm: %s.%s: %w", c.Name, m.Name, err)
			}
			m.numSites = next
		}
	}
	for _, c := range all {
		if c.Super != "" && !seen[c.Super] {
			return fmt.Errorf("minivm: class %q extends unknown class %q", c.Name, c.Super)
		}
	}
	if p.Entry.Class == "" || p.Entry.Method == "" {
		return fmt.Errorf("minivm: program has no entry method")
	}
	ec := p.Class(p.Entry.Class)
	if ec == nil {
		return fmt.Errorf("minivm: entry class %q not found", p.Entry.Class)
	}
	if ec.Method(p.Entry.Method) == nil {
		return fmt.Errorf("minivm: entry method %s not found", p.Entry)
	}
	return nil
}

func numberSites(body []Instr, next *int32) error {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case OpCall, OpVCall:
			if in.Class == "" || in.Name == "" {
				return fmt.Errorf("call instruction with empty target")
			}
			in.Site = *next
			*next++
		case OpLoop:
			if in.N < 0 {
				return fmt.Errorf("loop with negative count %d", in.N)
			}
			if err := numberSites(in.Body, next); err != nil {
				return err
			}
		case OpEmit, OpWork:
			// nothing to validate
		case OpThrow:
			if in.Tag == "" {
				return fmt.Errorf("throw with empty tag")
			}
		case OpTry:
			if err := numberSites(in.Body, next); err != nil {
				return err
			}
			if err := numberSites(in.Handler, next); err != nil {
				return err
			}
		case OpLoadClass:
			if in.Class == "" {
				return fmt.Errorf("loadclass with empty class name")
			}
		case OpSpawn:
			if in.Class == "" || in.Name == "" {
				return fmt.Errorf("spawn with empty target")
			}
		default:
			return fmt.Errorf("unknown opcode %d", in.Op)
		}
	}
	return nil
}

// String renders the program in the textual form accepted by package lang.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry %s\n", p.Entry)
	for _, c := range p.Classes {
		writeClass(&b, c, false)
	}
	for _, c := range p.Dynamic {
		writeClass(&b, c, true)
	}
	return b.String()
}

func writeClass(b *strings.Builder, c *Class, dynamic bool) {
	if dynamic {
		b.WriteString("dynamic ")
	}
	if c.Library {
		b.WriteString("library ")
	}
	fmt.Fprintf(b, "class %s", c.Name)
	if c.Super != "" {
		fmt.Fprintf(b, " extends %s", c.Super)
	}
	b.WriteString(" {\n")
	for _, m := range c.Methods {
		fmt.Fprintf(b, "  method %s {\n", m.Name)
		writeBody(b, m.Body, "    ")
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

func writeBody(b *strings.Builder, body []Instr, indent string) {
	for _, in := range body {
		switch in.Op {
		case OpCall:
			if in.Depth > 0 {
				fmt.Fprintf(b, "%srcall %d %s.%s\n", indent, in.Depth, in.Class, in.Name)
			} else {
				fmt.Fprintf(b, "%scall %s.%s\n", indent, in.Class, in.Name)
			}
		case OpVCall:
			if in.Depth > 0 {
				fmt.Fprintf(b, "%srvcall %d %s.%s\n", indent, in.Depth, in.Class, in.Name)
			} else {
				fmt.Fprintf(b, "%svcall %s.%s\n", indent, in.Class, in.Name)
			}
		case OpLoop:
			fmt.Fprintf(b, "%sloop %d {\n", indent, in.N)
			writeBody(b, in.Body, indent+"  ")
			fmt.Fprintf(b, "%s}\n", indent)
		case OpEmit:
			fmt.Fprintf(b, "%semit %s\n", indent, in.Tag)
		case OpLoadClass:
			fmt.Fprintf(b, "%sload %s\n", indent, in.Class)
		case OpWork:
			fmt.Fprintf(b, "%swork %d\n", indent, in.N)
		case OpThrow:
			if in.Depth > 0 {
				fmt.Fprintf(b, "%srthrow %d %s\n", indent, in.Depth, in.Tag)
			} else {
				fmt.Fprintf(b, "%sthrow %s\n", indent, in.Tag)
			}
		case OpSpawn:
			fmt.Fprintf(b, "%sspawn %s.%s\n", indent, in.Class, in.Name)
		case OpTry:
			fmt.Fprintf(b, "%stry {\n", indent)
			writeBody(b, in.Body, indent+"  ")
			fmt.Fprintf(b, "%s} catch {\n", indent)
			writeBody(b, in.Handler, indent+"  ")
			fmt.Fprintf(b, "%s}\n", indent)
		}
	}
}
