package sim

import (
	"fmt"
	"sync"
)

// Runner executes a set of programs over a shared memory in lock step: at
// every point each live process is parked at its next primitive step, and
// Step(pid) executes exactly that step. The runner is single-threaded; all
// base-object mutation happens on the caller's goroutine.
type Runner struct {
	mem         *Memory
	progs       []Program
	snapshotMem bool

	started bool
	stopped bool
	quit    chan struct{}
	wg      sync.WaitGroup
	procs   []*procState
	trace   *Trace
}

type procState struct {
	proc      *Proc
	pending   *Prim
	paused    bool
	done      bool
	bufInvoke *Event
	opIndex   int
	inOp      bool
	curOp     Event // invoke event of the current operation
}

// Option configures a Runner.
type Option func(*Runner)

// WithSnapshots controls whether the runner records a memory snapshot after
// every step (default true). Disable for long fuzzing runs that only need
// histories.
func WithSnapshots(on bool) Option {
	return func(r *Runner) { r.snapshotMem = on }
}

// NewRunner creates a runner for the given memory and per-process programs.
// Process i runs progs[i].
func NewRunner(mem *Memory, progs []Program, opts ...Option) *Runner {
	r := &Runner{mem: mem, progs: progs, snapshotMem: true}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Mem returns the runner's memory.
func (r *Runner) Mem() *Memory { return r.mem }

// Start resets the memory, spawns the process goroutines and parks each
// process at its first primitive step. It must be called exactly once.
func (r *Runner) Start() {
	if r.started {
		panic("sim: Runner.Start called twice")
	}
	r.started = true
	r.mem.Reset()
	r.quit = make(chan struct{})
	r.trace = &Trace{
		NumProcs: len(r.progs),
		ObjNames: r.mem.Names(),
		Initial:  r.mem.Snapshot(),
	}
	r.procs = make([]*procState, len(r.progs))
	for i, prog := range r.progs {
		p := &Proc{
			ID:    i,
			N:     len(r.progs),
			out:   make(chan procMsg),
			grant: make(chan Value),
			quit:  r.quit,
		}
		r.procs[i] = &procState{proc: p}
		r.wg.Add(1)
		go func(prog Program, p *Proc) {
			defer r.wg.Done()
			prog(p)
			// Program finished: report completion (or exit if stopped).
			select {
			case p.out <- procMsg{kind: msgDone}:
			case <-r.quit:
			}
		}(prog, p)
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
		m := <-ps.proc.out
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
	step := Step{PID: pid, Prim: prim, Result: result}
	if r.snapshotMem {
		step.Mem = r.mem.Snapshot()
	}
	r.trace.Steps = append(r.trace.Steps, step)
	// Unblock the process and park it again.
	select {
	case ps.proc.grant <- result:
	case <-r.quit:
		return
	}
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
	select {
	case ps.proc.grant <- nil:
	case <-r.quit:
		return
	}
	r.drain(pid)
}

// Trace returns the execution recorded so far.
func (r *Runner) Trace() *Trace { return r.trace }

// Stop terminates all process goroutines and waits for them to exit. It is
// safe to call multiple times; the runner cannot be reused afterwards.
func (r *Runner) Stop() {
	if !r.started || r.stopped {
		r.stopped = true
		return
	}
	r.stopped = true
	close(r.quit)
	r.wg.Wait()
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
