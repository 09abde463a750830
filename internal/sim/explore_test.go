package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
)

// exploreReplayEveryNode is the explorer Explore replaced, kept as the
// differential oracle: it replays the schedule prefix from scratch at every
// node of the search tree, so it builds one runner per node, not one per
// maximal trace.
func exploreReplayEveryNode(build sim.Builder, maxSteps, budget int, visit func(*sim.Trace) error) (int, error) {
	visited := 0
	runs := 0

	replay := func(prefix []int) (*sim.Runner, error) {
		if runs >= budget {
			return nil, sim.ErrBudget
		}
		runs++
		r := build()
		r.Start()
		for _, pid := range prefix {
			for _, p := range r.Paused() {
				r.Resume(p)
			}
			r.Step(pid)
		}
		for _, p := range r.Paused() {
			r.Resume(p)
		}
		return r, nil
	}

	var dfs func(prefix []int) error
	dfs = func(prefix []int) error {
		r, err := replay(prefix)
		if err != nil {
			return err
		}
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
		r.Stop()
		for _, pid := range runnable {
			if err := dfs(append(prefix, pid)); err != nil {
				return err
			}
		}
		return nil
	}

	err := dfs(nil)
	return visited, err
}

type explorer func(sim.Builder, int, int, func(*sim.Trace) error) (int, error)

// exploration is everything one explorer produced: the visited traces in
// order, the count it returned and the runners it built.
type exploration struct {
	traces []*sim.Trace
	n      int
	runs   int
}

func runExplorer(t *testing.T, explore explorer, build sim.Builder, maxSteps int) exploration {
	t.Helper()
	var e exploration
	counted := func() *sim.Runner {
		e.runs++
		return build()
	}
	n, err := explore(counted, maxSteps, 1<<30, func(tr *sim.Trace) error {
		e.traces = append(e.traces, tr)
		return nil
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	e.n = n
	return e
}

// pauseBuilder builds two processes that pause between their operations,
// so exploration goes through the resume path after steps.
func pauseBuilder() *sim.Runner {
	mem := sim.NewMemory()
	x := mem.NewCAS("x", 0)
	prog := func(v int) sim.Program {
		return func(p *sim.Proc) {
			p.Invoke(core.Op{Name: "a"}, true)
			old := p.ReadCAS(x).(int)
			p.CAS(x, old, old+v)
			p.Return(old)
			p.Pause()
			p.Invoke(core.Op{Name: "b"}, false)
			p.ReadCAS(x)
			p.Return(0)
		}
	}
	return sim.NewRunner(mem, []sim.Program{prog(1), prog(10)})
}

func displaceBuilder() *sim.Runner {
	h := hihash.NewDisplaceHarness(hihash.Params{T: 3, G: 2, B: 1}, 2, hihash.DisplaceCanonical)
	ins := func(k int) core.Op { return core.Op{Name: spec.OpInsert, Arg: k} }
	rem := func(k int) core.Op { return core.Op{Name: spec.OpRemove, Arg: k} }
	return h.BuildScripts([][]core.Op{{ins(1), rem(1)}, {ins(3)}})
}

// TestExploreMatchesReplayEveryNode: Explore visits exactly the traces the
// replay-every-node oracle visits, in the same order, with identical
// schedules, memories, histories and truncation flags, while building one
// runner per maximal trace instead of one per tree node.
func TestExploreMatchesReplayEveryNode(t *testing.T) {
	cases := []struct {
		name     string
		build    sim.Builder
		maxSteps int
	}{
		{"inc", buildIncRunner, 100},
		{"inc-truncated", buildIncRunner, 3},
		{"pause", pauseBuilder, 100},
		{"displace", displaceBuilder, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runExplorer(t, exploreReplayEveryNode, tc.build, tc.maxSteps)
			got := runExplorer(t, sim.Explore, tc.build, tc.maxSteps)
			if got.n != want.n || len(got.traces) != len(want.traces) {
				t.Fatalf("Explore visited %d traces (returned %d), oracle %d (returned %d)",
					len(got.traces), got.n, len(want.traces), want.n)
			}
			if want.n < 2 {
				t.Fatalf("only %d traces: the case explores nothing", want.n)
			}
			if got.runs != got.n {
				t.Errorf("Explore built %d runners for %d traces, want one per trace", got.runs, got.n)
			}
			t.Logf("%d traces: %d runners built, oracle %d", got.n, got.runs, want.runs)
			for i := range want.traces {
				if err := sameTrace(want.traces[i], got.traces[i]); err != "" {
					t.Fatalf("trace %d (oracle schedule %v): %s", i, want.traces[i].Schedule(), err)
				}
			}
		})
	}
}

// sameTrace compares two traces field by field and describes the first
// difference ("" if none).
func sameTrace(want, got *sim.Trace) string {
	switch {
	case !reflect.DeepEqual(got.Schedule(), want.Schedule()):
		return fmt.Sprintf("schedule %v", got.Schedule())
	case !reflect.DeepEqual(got.Initial, want.Initial):
		return "initial memory differs"
	case got.Truncated != want.Truncated:
		return "truncation flag differs"
	case !reflect.DeepEqual(got.Events, want.Events):
		return "events differ"
	}
	for k := range want.Steps {
		if !reflect.DeepEqual(got.Steps[k].Mem, want.Steps[k].Mem) {
			return fmt.Sprintf("memory after step %d: %v, oracle %v", k+1, got.Steps[k].Mem, want.Steps[k].Mem)
		}
	}
	return ""
}

// TestExploreBudgetCountsRuns pins the run accounting: one run per maximal
// trace, so a budget equal to the trace count completes and one less
// returns ErrBudget.
func TestExploreBudgetCountsRuns(t *testing.T) {
	for _, build := range []sim.Builder{buildIncRunner, pauseBuilder, displaceBuilder} {
		all, err := sim.Explore(build, 12, 1<<30, func(*sim.Trace) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		n, err := sim.Explore(build, 12, all, func(*sim.Trace) error { return nil })
		if err != nil || n != all {
			t.Errorf("budget %d: visited %d, err %v; want %d, nil", all, n, err, all)
		}
		n, err = sim.Explore(build, 12, all-1, func(*sim.Trace) error { return nil })
		if !errors.Is(err, sim.ErrBudget) || n != all-1 {
			t.Errorf("budget %d: visited %d, err %v; want %d, ErrBudget", all-1, n, err, all-1)
		}
	}
}

// liveIncBuilder is buildIncRunner with every process goroutine counted in
// live while it runs.
func liveIncBuilder(live *atomic.Int64) sim.Builder {
	return func() *sim.Runner {
		mem := sim.NewMemory()
		r := mem.NewReg("x", 0)
		prog := func(p *sim.Proc) {
			live.Add(1)
			defer live.Add(-1)
			incProgram(r, 2)(p)
		}
		return sim.NewRunner(mem, []sim.Program{prog, prog})
	}
}

// TestExploreStopsEveryRunner: when visit fails or the budget runs out,
// Explore returns at once and leaves no process goroutine running. The
// step bound truncates every trace, so each leaf runner still has blocked
// processes that only Stop can end.
func TestExploreStopsEveryRunner(t *testing.T) {
	stop := errors.New("stop")
	for _, at := range []int{1, 2, 5} {
		var live atomic.Int64
		visits := 0
		n, err := sim.Explore(liveIncBuilder(&live), 3, 1<<30, func(*sim.Trace) error {
			visits++
			if visits == at {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || n != at || visits != at {
			t.Errorf("visit error at trace %d: returned %d, %d visits, err %v", at, n, visits, err)
		}
		if l := live.Load(); l != 0 {
			t.Errorf("visit error at trace %d: %d process goroutines left running", at, l)
		}
	}
	var live atomic.Int64
	if _, err := sim.Explore(liveIncBuilder(&live), 3, 4, func(*sim.Trace) error { return nil }); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if l := live.Load(); l != 0 {
		t.Errorf("budget exhausted: %d process goroutines left running", l)
	}
}
