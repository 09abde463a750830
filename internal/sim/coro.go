package sim

import (
	"iter"
	"sync"
)

// A coroutine runs programs one after another, each as one process of
// some runner, and reports the end of each with msgDone. Coroutines are
// pooled, not made per process: with Go 1.24's race detector every
// coroutine that exits leaks about 5 KB, and the checkers start
// processes for every schedule they explore. Pooling also keeps each
// coroutine's grown stack.
type coroutine struct {
	next func() (procMsg, bool)
	prog Program
	proc *Proc
}

// idle holds the parked coroutines; it grows to the largest number of
// processes alive at once.
var idle struct {
	sync.Mutex
	coros []*coroutine
}

// getCoroutine returns an idle coroutine, or a new one, set to run prog
// as process p.
func getCoroutine(prog Program, p *Proc) *coroutine {
	idle.Lock()
	var c *coroutine
	if n := len(idle.coros); n > 0 {
		c, idle.coros = idle.coros[n-1], idle.coros[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = &coroutine{}
		c.next, _ = iter.Pull(c.loop)
	}
	c.prog, c.proc = prog, p
	return c
}

// putCoroutine parks c, which has just reported msgDone, for reuse.
func putCoroutine(c *coroutine) {
	c.prog, c.proc = nil, nil
	idle.Lock()
	idle.coros = append(idle.coros, c)
	idle.Unlock()
}

// loop is the coroutine body. It never returns: nothing ends a pooled
// coroutine.
func (c *coroutine) loop(yield func(procMsg) bool) {
	for {
		c.run(yield)
		yield(procMsg{kind: msgDone})
	}
}

// run runs the current program until it returns or Stop unwinds it. Any
// other panic ends the coroutine and reaches the caller of next.
func (c *coroutine) run(yield func(procMsg) bool) {
	defer func() {
		if v := recover(); v != nil && v != (stopped{}) {
			panic(v)
		}
	}()
	c.proc.yield = yield
	c.prog(c.proc)
}
