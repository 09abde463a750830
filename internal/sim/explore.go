package sim

import (
	"errors"
	"fmt"
)

// ErrBudget is returned by Explore when the run budget is exhausted before
// the schedule space was covered.
var ErrBudget = errors.New("sim: exploration budget exhausted")

// Builder constructs a fresh runner (fresh memory, fresh programs). Every
// runner built must be deterministic: the trace must be a function of the
// schedule alone.
type Builder func() *Runner

// Explore enumerates every schedule of the runner built by build, up to
// maxSteps primitive steps, and calls visit on each maximal trace (a trace
// in which either all processes finished or the step bound was reached).
// Exploration is stateless, as in CHESS-style model checking, and performs
// one run per maximal trace: the depth-first search extends the live
// runner in place into the first child of every node and rebuilds a runner,
// replaying the schedule prefix, only for each later sibling. Traces are
// visited in depth-first order. At most budget runs (runners built) are
// performed; if the budget is exhausted Explore returns ErrBudget. It
// returns the number of maximal traces visited. Every runner is stopped
// before Explore returns, also when visit fails.
//
// Paused processes are resumed automatically (exhaustive exploration is not
// used with adaptive drivers).
func Explore(build Builder, maxSteps, budget int, visit func(*Trace) error) (int, error) {
	visited := 0
	runs := 0

	// replay builds a runner and applies the schedule prefix.
	replay := func(prefix []int) (*Runner, error) {
		if runs >= budget {
			return nil, ErrBudget
		}
		runs++
		r := build()
		r.Start()
		resumeAll(r)
		for _, pid := range prefix {
			r.Step(pid)
			resumeAll(r)
		}
		return r, nil
	}

	// dfs explores the subtree below prefix; r is the live runner at the
	// end of prefix, and dfs stops it.
	var dfs func(r *Runner, prefix []int) error
	dfs = func(r *Runner, prefix []int) error {
		runnable := r.Runnable()
		if len(runnable) == 0 || len(prefix) >= maxSteps {
			t := r.Trace()
			if len(runnable) > 0 {
				t.Truncated = true
			}
			r.Stop()
			visited++
			return visit(t)
		}
		for i, pid := range runnable {
			if i > 0 {
				var err error
				if r, err = replay(prefix); err != nil {
					return err
				}
			}
			r.Step(pid)
			resumeAll(r)
			if err := dfs(r, append(prefix, pid)); err != nil {
				return err
			}
		}
		return nil
	}

	r, err := replay(nil)
	if err != nil {
		return 0, err
	}
	err = dfs(r, nil)
	return visited, err
}

// resumeAll resumes every paused process of r.
func resumeAll(r *Runner) {
	for _, p := range r.Paused() {
		r.Resume(p)
	}
}

// RandomTraces runs n random schedules (seeded seed, seed+1, ...) of the
// runner built by build, each up to maxSteps steps, and calls visit on every
// trace. It stops at the first visit error.
func RandomTraces(build Builder, n int, seed int64, maxSteps int, visit func(*Trace) error) error {
	for i := 0; i < n; i++ {
		r := build()
		t := r.Run(NewRandomSched(seed+int64(i)), maxSteps)
		if err := visit(t); err != nil {
			return fmt.Errorf("seed %d: %w", seed+int64(i), err)
		}
	}
	return nil
}

// SequentialOps runs the runner built by build under a scheduler that never
// interleaves operations: it repeatedly picks a runnable process and runs it
// until its current operation completes. The order of operations is chosen
// by pick (given the number of completed operations so far and the runnable
// pids). This produces the sequential executions over which canonical
// memory representations are defined.
func SequentialOps(build Builder, maxSteps int, pick func(opIdx int, runnable []int) int) *Trace {
	r := build()
	r.Start()
	defer r.Stop()
	opIdx := 0
	for len(r.Trace().Steps) < maxSteps {
		resumeAll(r)
		runnable := r.Runnable()
		if len(runnable) == 0 {
			return r.Trace()
		}
		pid := pick(opIdx, runnable)
		// Run pid until its current operation returns (or it finishes).
		completed := len(r.Trace().Events)
		for {
			if _, ok := r.PendingPrim(pid); !ok {
				break
			}
			r.Step(pid)
			done := false
			for _, ev := range r.Trace().Events[completed:] {
				if ev.Kind == EvReturn && ev.PID == pid {
					done = true
				}
			}
			if done || len(r.Trace().Steps) >= maxSteps {
				break
			}
		}
		opIdx++
	}
	r.Trace().Truncated = len(r.Runnable()) > 0
	return r.Trace()
}
