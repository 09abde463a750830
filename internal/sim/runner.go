package sim

import "fmt"

// Runner executes a set of programs over a shared memory in lock step: at
// every point each live process is parked at its next primitive step, and
// Step(pid) executes exactly that step. Each program runs as a coroutine
// that only the runner resumes, so the runner is single-threaded: all
// base-object mutation happens on the caller's goroutine, and a panic in a
// program reaches the Start, Step or Resume call that resumed it.
type Runner struct {
	mem   *Memory
	progs []Program

	started bool
	procs   []*procState
	trace   *Trace
}

type procState struct {
	proc      *Proc
	co        *coroutine // nil once the program has finished
	pending   *Prim
	paused    bool
	done      bool
	bufInvoke *Event
	opIndex   int
	inOp      bool
	curOp     Event // invoke event of the current operation
}

// NewRunner creates a runner for the given memory and per-process programs.
// Process i runs progs[i]. The runner snapshots the memory after every step.
func NewRunner(mem *Memory, progs []Program) *Runner {
	return &Runner{mem: mem, progs: progs}
}

// Mem returns the runner's memory.
func (r *Runner) Mem() *Memory { return r.mem }

// Start resets the memory, creates the process coroutines and parks each
// process at its first primitive step. It must be called exactly once.
func (r *Runner) Start() {
	if r.started {
		panic("sim: Runner.Start called twice")
	}
	r.started = true
	r.mem.Reset()
	r.trace = &Trace{
		NumProcs: len(r.progs),
		ObjNames: r.mem.Names(),
		Initial:  r.mem.Snapshot(),
	}
	r.procs = make([]*procState, len(r.progs))
	for i, prog := range r.progs {
		p := &Proc{ID: i, N: len(r.progs)}
		r.procs[i] = &procState{proc: p, co: getCoroutine(prog, p)}
	}
	for i := range r.procs {
		r.drain(i)
	}
}

// drain consumes messages from process pid until it parks at a primitive
// request, pauses, or finishes.
func (r *Runner) drain(pid int) {
	ps := r.procs[pid]
	for {
		m, _ := ps.co.next()
		switch m.kind {
		case msgPrim:
			prim := m.prim
			ps.pending = &prim
			return
		case msgPause:
			ps.paused = true
			return
		case msgDone:
			ps.done = true
			putCoroutine(ps.co)
			ps.co = nil
			return
		case msgInvoke:
			ev := Event{
				Kind:          EvInvoke,
				PID:           pid,
				OpIndex:       ps.opIndex,
				Op:            m.op,
				StateChanging: m.stateChanging,
			}
			ps.opIndex++
			ps.bufInvoke = &ev
		case msgReturn:
			r.flushInvoke(ps, len(r.trace.Steps))
			if !ps.inOp {
				panic(fmt.Sprintf("sim: p%d returned without a pending operation", pid))
			}
			ret := ps.curOp
			ret.Kind = EvReturn
			ret.Resp = m.resp
			ret.StepIndex = len(r.trace.Steps)
			r.trace.Events = append(r.trace.Events, ret)
			ps.inOp = false
		default:
			panic("sim: unknown message kind")
		}
	}
}

// flushInvoke materializes a buffered invocation event at configuration idx.
func (r *Runner) flushInvoke(ps *procState, idx int) {
	if ps.bufInvoke == nil {
		return
	}
	ev := *ps.bufInvoke
	ev.StepIndex = idx
	r.trace.Events = append(r.trace.Events, ev)
	ps.curOp = ev
	ps.inOp = true
	ps.bufInvoke = nil
}

// Runnable returns the ids of processes parked at a primitive step.
func (r *Runner) Runnable() []int {
	var out []int
	for i, ps := range r.procs {
		if ps.pending != nil {
			out = append(out, i)
		}
	}
	return out
}

// Paused returns the ids of paused processes.
func (r *Runner) Paused() []int {
	var out []int
	for i, ps := range r.procs {
		if ps.paused {
			out = append(out, i)
		}
	}
	return out
}

// Done reports whether every process has finished.
func (r *Runner) Done() bool {
	for _, ps := range r.procs {
		if !ps.done {
			return false
		}
	}
	return true
}

// ProcDone reports whether process pid has finished its program.
func (r *Runner) ProcDone(pid int) bool { return r.procs[pid].done }

// PendingPrim returns the primitive process pid is parked at.
func (r *Runner) PendingPrim(pid int) (Prim, bool) {
	ps := r.procs[pid]
	if ps.pending == nil {
		return Prim{}, false
	}
	return *ps.pending, true
}

// Step executes the pending primitive of process pid, records the resulting
// configuration, and parks pid at its next request. It panics if pid is not
// runnable (a scheduler bug).
func (r *Runner) Step(pid int) {
	ps := r.procs[pid]
	if ps.pending == nil {
		panic(fmt.Sprintf("sim: Step(%d) on non-runnable process", pid))
	}
	prim := *ps.pending
	ps.pending = nil
	if r.mem.IndexOf(prim.Obj) < 0 {
		panic(fmt.Sprintf("sim: p%d accessed unregistered object %s", pid, prim.Obj.Name()))
	}
	// The invocation of the operation this step belongs to becomes visible
	// at the configuration this step produces.
	r.flushInvoke(ps, len(r.trace.Steps)+1)
	result := prim.Obj.apply(pid, prim)
	r.trace.Steps = append(r.trace.Steps, Step{PID: pid, Prim: prim, Result: result, Mem: r.mem.Snapshot()})
	// Hand the result to the process and park it again.
	ps.proc.grant = result
	r.drain(pid)
}

// Resume wakes a paused process and parks it at its next request. It panics
// if pid is not paused.
func (r *Runner) Resume(pid int) {
	ps := r.procs[pid]
	if !ps.paused {
		panic(fmt.Sprintf("sim: Resume(%d) on non-paused process", pid))
	}
	ps.paused = false
	ps.proc.grant = nil
	r.drain(pid)
}

// Trace returns the execution recorded so far.
func (r *Runner) Trace() *Trace { return r.trace }

// Stop unwinds every unfinished process, running its deferred calls. It is
// safe to call multiple times, also after a program panicked; the runner
// cannot be reused afterwards.
func (r *Runner) Stop() {
	for _, ps := range r.procs {
		if ps.co == nil {
			continue
		}
		ps.proc.stopping = true
		// A coroutine whose program panicked has ended; next then reports
		// nothing and the coroutine is dropped.
		if m, _ := ps.co.next(); m.kind == msgDone {
			putCoroutine(ps.co)
		}
		ps.co = nil
	}
}

// Run drives the runner with the scheduler until every process finishes or
// maxSteps primitive steps have executed, then stops it and returns the
// trace. Paused processes are resumed automatically.
func (r *Runner) Run(s Scheduler, maxSteps int) *Trace {
	r.Start()
	defer r.Stop()
	for len(r.trace.Steps) < maxSteps {
		resumeAll(r)
		runnable := r.Runnable()
		if len(runnable) == 0 {
			return r.trace
		}
		r.Step(s.Next(len(r.trace.Steps), runnable))
	}
	if len(r.Runnable()) > 0 {
		r.trace.Truncated = true
	}
	return r.trace
}
