package sim

import "hiconc/internal/core"

// Program is the code a single process runs: a sequence of high-level
// operations implemented in terms of primitive steps on base objects via the
// Proc handle. A Program returns when the process has no more operations to
// perform.
//
// The runner may stop a program at any primitive step by unwinding it with
// a private panic, so deferred calls run. A program must not swallow that
// panic with a blanket recover.
type Program func(p *Proc)

type msgKind int

const (
	msgPrim msgKind = iota + 1
	msgInvoke
	msgReturn
	msgPause
	msgDone
)

type procMsg struct {
	kind          msgKind
	prim          Prim
	op            core.Op
	stateChanging bool
	resp          int
}

// Proc is the handle through which a program issues primitive steps and
// operation bookkeeping. The runner resumes each program as a coroutine:
// every primitive method suspends the program until the scheduler grants
// the process a step, so the runner controls the interleaving exactly.
// Proc methods must only be called from the program itself.
type Proc struct {
	// ID is the process index p_i, 0-based.
	ID int
	// N is the total number of processes in the system.
	N int

	yield    func(procMsg) bool
	grant    Value // result of the last granted request, set by the runner
	stopping bool  // set by the runner's Stop: unwind at the next Proc call
}

// stopped is the panic value that unwinds a program when the runner stops.
type stopped struct{}

// send hands a message to the runner and suspends the program until the
// runner resumes it. If the runner has stopped instead, the program is
// unwound.
func (p *Proc) send(m procMsg) {
	if !p.stopping {
		p.yield(m)
	}
	if p.stopping {
		panic(stopped{})
	}
}

// exec performs one primitive step and returns its result.
func (p *Proc) exec(pr Prim) Value {
	p.send(procMsg{kind: msgPrim, prim: pr})
	return p.grant
}

// Read performs an atomic read of register r.
func (p *Proc) Read(r *Reg) Value {
	return p.exec(Prim{Kind: PrimRead, Obj: r})
}

// ReadInt reads register r and returns its value as an int.
func (p *Proc) ReadInt(r *Reg) int {
	return p.Read(r).(int)
}

// Write performs an atomic write of v to register r.
func (p *Proc) Write(r *Reg, v Value) {
	p.exec(Prim{Kind: PrimWrite, Obj: r, Arg1: v})
}

// ReadCAS performs an atomic read of CAS object c.
func (p *Proc) ReadCAS(c *CASObj) Value {
	return p.exec(Prim{Kind: PrimRead, Obj: c})
}

// WriteCAS performs an atomic write of v to CAS object c.
func (p *Proc) WriteCAS(c *CASObj, v Value) {
	p.exec(Prim{Kind: PrimWrite, Obj: c, Arg1: v})
}

// CAS performs an atomic compare-and-swap on c: if c holds old it is set to
// new and CAS returns true; otherwise c is unchanged and CAS returns false.
func (p *Proc) CAS(c *CASObj, old, new Value) bool {
	return p.exec(Prim{Kind: PrimCAS, Obj: c, Arg1: old, Arg2: new}).(bool)
}

// LL load-links cell c: it adds this process to c's context and returns c's
// value.
func (p *Proc) LL(c *LLSCCell) Value {
	return p.exec(Prim{Kind: PrimLL, Obj: c})
}

// VL validates the link: it reports whether this process is in c's context.
func (p *Proc) VL(c *LLSCCell) bool {
	return p.exec(Prim{Kind: PrimVL, Obj: c}).(bool)
}

// SC store-conditionally writes v to c: it succeeds iff this process is in
// c's context, in which case the context is reset.
func (p *Proc) SC(c *LLSCCell, v Value) bool {
	return p.exec(Prim{Kind: PrimSC, Obj: c, Arg1: v}).(bool)
}

// RL releases this process's link on c (removes it from the context).
func (p *Proc) RL(c *LLSCCell) {
	p.exec(Prim{Kind: PrimRL, Obj: c})
}

// Load reads c's value without touching the context.
func (p *Proc) Load(c *LLSCCell) Value {
	return p.exec(Prim{Kind: PrimLoad, Obj: c})
}

// Store writes v to c and resets the context.
func (p *Proc) Store(c *LLSCCell, v Value) {
	p.exec(Prim{Kind: PrimStore, Obj: c, Arg1: v})
}

// Invoke records the invocation of a high-level operation. The invocation is
// attached to the process's next primitive step, so a process with no steps
// taken yet on an operation is not considered pending in earlier
// configurations. stateChanging must reflect the operation's classification
// per Section 3 (used to identify state-quiescent configurations).
func (p *Proc) Invoke(op core.Op, stateChanging bool) {
	p.send(procMsg{kind: msgInvoke, op: op, stateChanging: stateChanging})
}

// Return records the response of the process's current operation.
func (p *Proc) Return(resp int) {
	p.send(procMsg{kind: msgReturn, resp: resp})
}

// Pause parks the process until the controller resumes it. While paused the
// process is not runnable. Pause is used by adaptive drivers (for example
// the Theorem 17 adversary) that decide a process's next operations on the
// fly.
func (p *Proc) Pause() {
	p.send(procMsg{kind: msgPause})
}
