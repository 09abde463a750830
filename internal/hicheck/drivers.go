package hicheck

import (
	"errors"
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/harness"
	"hiconc/internal/linearize"
	"hiconc/internal/sim"
)

// Scripts enumerates all per-process operation scripts where process i runs
// exactly lens[i] operations drawn from its permitted set. The result can be
// large; keep lens small.
func Scripts(h *harness.Harness, lens []int) [][][]core.Op {
	if len(lens) != h.NumProcs() {
		panic(fmt.Sprintf("hicheck: %d lengths for %d processes", lens, h.NumProcs()))
	}
	var out [][][]core.Op
	current := make([][]core.Op, h.NumProcs())
	var rec func(pid int)
	rec = func(pid int) {
		if pid == h.NumProcs() {
			cp := make([][]core.Op, len(current))
			for i := range current {
				cp[i] = append([]core.Op(nil), current[i]...)
			}
			out = append(out, cp)
			return
		}
		var seqs func(script []core.Op)
		seqs = func(script []core.Op) {
			if len(script) == lens[pid] {
				current[pid] = script
				rec(pid + 1)
				return
			}
			for _, op := range h.ProcOps[pid] {
				seqs(append(script[:len(script):len(script)], op))
			}
		}
		seqs(nil)
	}
	rec(0)
	return out
}

// CheckExhaustive explores every interleaving (up to maxSteps primitive
// steps and the run budget) of every given script set, verifying HI under
// class and, when checkLin is set, linearizability of every trace. It
// returns the number of traces inspected. The budget applies to each script
// set; the first set that exhausts it ends the check with a *BudgetError,
// which satisfies errors.Is(err, sim.ErrBudget).
func CheckExhaustive(c *Canon, h *harness.Harness, scriptSets [][][]core.Op, class ObsClass, maxSteps, budget int, checkLin bool) (int, error) {
	total := 0
	for i, scripts := range scriptSets {
		if err := h.Validate(scripts); err != nil {
			return total, err
		}
		n, err := sim.Explore(h.Builder(scripts), maxSteps, budget, func(t *sim.Trace) error {
			if err := CheckTrace(c, t, class); err != nil {
				return fmt.Errorf("scripts %v: %w", scripts, err)
			}
			if checkLin {
				if err := linearize.Check(h.Spec, t.Events); err != nil {
					return fmt.Errorf("scripts %v: %w", scripts, err)
				}
			}
			return nil
		})
		total += n
		if errors.Is(err, sim.ErrBudget) {
			return total, &BudgetError{Set: i, Scripts: scripts, Traces: n, Unreached: scriptSets[i+1:]}
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// BudgetError reports an exhaustive check cut short by its run budget: the
// script set whose exploration ran out, the traces of it that were checked,
// and the later script sets that were never explored.
type BudgetError struct {
	// Set is the 0-based index of the truncated script set; Scripts is
	// that set.
	Set     int
	Scripts [][]core.Op
	// Traces is the number of the set's traces checked before the budget
	// ran out.
	Traces int
	// Unreached are the script sets after it, none of them explored.
	Unreached [][][]core.Op
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("hicheck: script set %d of %d %v truncated after %d traces; %d later sets not explored %v: %v",
		e.Set+1, e.Set+1+len(e.Unreached), e.Scripts, e.Traces, len(e.Unreached), e.Unreached, sim.ErrBudget)
}

// Unwrap returns sim.ErrBudget.
func (e *BudgetError) Unwrap() error { return sim.ErrBudget }

// CheckRandom fuzzes the implementation with n random schedules per script
// set, verifying HI under class and, when checkLin is set, linearizability.
func CheckRandom(c *Canon, h *harness.Harness, scriptSets [][][]core.Op, class ObsClass, n int, seed int64, maxSteps int, checkLin bool) error {
	for _, scripts := range scriptSets {
		if err := h.Validate(scripts); err != nil {
			return err
		}
		err := sim.RandomTraces(h.Builder(scripts), n, seed, maxSteps, func(t *sim.Trace) error {
			if err := CheckTrace(c, t, class); err != nil {
				return fmt.Errorf("scripts %v: %w", scripts, err)
			}
			if checkLin {
				if err := linearize.Check(h.Spec, t.Events); err != nil {
					return fmt.Errorf("scripts %v: %w", scripts, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// FindViolation explores interleavings of the script sets until it finds an
// HI violation under class; it returns nil if the budget is exhausted (or
// the space covered) with no violation. This is the refutation direction:
// for example Algorithm 2 under the Perfect class must yield a witness.
func FindViolation(c *Canon, h *harness.Harness, scriptSets [][][]core.Op, class ObsClass, maxSteps, budget int) *Violation {
	var found *Violation
	for _, scripts := range scriptSets {
		_, err := sim.Explore(h.Builder(scripts), maxSteps, budget, func(t *sim.Trace) error {
			if err := CheckTrace(c, t, class); err != nil {
				if v, ok := err.(*Violation); ok {
					found = v
					return err
				}
				return err
			}
			return nil
		})
		if found != nil {
			return found
		}
		if err != nil && err != sim.ErrBudget {
			return nil
		}
	}
	return nil
}
