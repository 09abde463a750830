package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hiconc/internal/core"
	"hiconc/internal/harness"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/linearize"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
)

// The modelcheck workload's fixed exhaustive check.
var (
	mcParams = hihash.Params{T: 3, G: 2, B: 1}
	mcDepth  = 16
	// mcBudget is far above the replays the check needs; running out
	// fails the run, because a truncated search proves nothing.
	mcBudget = 4_000_000
)

// checker is the modelcheck workload: sim.Explore over the displacing
// sim twin, every trace checked for state-quiescent HI and
// linearizability (the composition of hicheck.CheckExhaustive).
type checker struct {
	h       *harness.Harness
	canon   *hicheck.Canon
	scripts [][][]core.Op
	depth   int
	budget  int
}

// newChecker builds the harness, the canonical map and the script sets:
// {ins a}{ins b} and {ins a, rem a}{ins b}, a and b sharing a home group.
func newChecker(budget int) (*checker, error) {
	h := hihash.NewDisplaceHarness(mcParams, 2, hihash.DisplaceCanonical)
	canon, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		return nil, fmt.Errorf("build canonical map: %w", err)
	}
	a, b, err := sameGroupPair(mcParams)
	if err != nil {
		return nil, err
	}
	ins := func(k int) core.Op { return core.Op{Name: spec.OpInsert, Arg: k} }
	rem := func(k int) core.Op { return core.Op{Name: spec.OpRemove, Arg: k} }
	return &checker{
		h:     h,
		canon: canon,
		scripts: [][][]core.Op{
			{{ins(a)}, {ins(b)}},
			{{ins(a), rem(a)}, {ins(b)}},
		},
		depth:  mcDepth,
		budget: budget,
	}, nil
}

// sameGroupPair returns the smallest two keys of p sharing a home group.
func sameGroupPair(p hihash.Params) (int, int, error) {
	for a := 1; a <= p.T; a++ {
		for b := a + 1; b <= p.T; b++ {
			if hihash.GroupOf(a, p.G) == hihash.GroupOf(b, p.G) {
				return a, b, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("no two keys of %v share a group", p)
}

// checkStats is what one or more exhaustive checks measured.
type checkStats struct {
	checks          int
	traces, replays int
	walls           []float64 // seconds per check
	visit           time.Duration
	checkTrace      time.Duration
	linCheck        time.Duration
	// per-trace samples: the checker's verdict time (read side) and the
	// explorer's replay work since the previous trace (update side)
	verdict, explore []uint32
	allocBytes       uint64
	// per check: where its samples start in verdict/explore, its traces,
	// and the slowdown the calibration bursts inside it saw
	first, perTraces []int
	slows            []float64
}

// calSpacing is how often, at most, a check pauses for a calibration
// burst; the bursts' time is left out of every figure.
const calSpacing = 20 * time.Millisecond

// run performs one full exhaustive check. A violation, a linearizability
// failure or an exhausted budget is an error.
func (k *checker) run(st *checkStats, cal *calTable, tr *tracer) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var calNs time.Duration
	var calOps int
	burst := func() {
		calNs += cal.burst(calBurstOps)
		calOps += calBurstOps
	}
	st.first = append(st.first, len(st.verdict))
	traces0 := st.traces
	t0 := time.Now()
	lastCal := t0
	root := tr.id()
	rootStart := tr.now()
	for si, scripts := range k.scripts {
		if err := k.h.Validate(scripts); err != nil {
			return err
		}
		inner := k.h.Builder(scripts)
		build := func() *sim.Runner {
			st.replays++
			return inner()
		}
		last := time.Now()
		_, err := sim.Explore(build, k.depth, k.budget, func(t *sim.Trace) error {
			v0 := time.Now()
			err := hicheck.CheckTrace(k.canon, t, hicheck.StateQuiescent)
			v1 := time.Now()
			if err == nil {
				err = linearize.Check(k.h.Spec, t.Events)
			}
			v2 := time.Now()
			st.traces++
			st.checkTrace += v1.Sub(v0)
			st.linCheck += v2.Sub(v1)
			st.visit += v2.Sub(v0)
			st.verdict = append(st.verdict, uint32(v2.Sub(v0)))
			st.explore = append(st.explore, uint32(v0.Sub(last)))
			if tr != nil {
				opID := int64(si)<<40 | int64(st.traces)
				s := int64(last.Sub(tr.base))
				tid := tr.add(root, opID, "modelcheck.trace", s, int64(v2.Sub(tr.base)))
				tr.add(tid, opID, "sim.Explore.replay", s, int64(v0.Sub(tr.base)))
				tr.add(tid, opID, "hicheck.CheckTrace", int64(v0.Sub(tr.base)), int64(v1.Sub(tr.base)))
				tr.add(tid, opID, "linearize.Check", int64(v1.Sub(tr.base)), int64(v2.Sub(tr.base)))
			}
			if time.Since(lastCal) >= calSpacing {
				b0 := time.Now()
				burst()
				lastCal = time.Now()
				t0 = t0.Add(lastCal.Sub(b0)) // the burst is not the check's time
			}
			last = time.Now()
			if err != nil {
				return fmt.Errorf("scripts %v: %w", scripts, err)
			}
			return nil
		})
		if errors.Is(err, sim.ErrBudget) {
			return fmt.Errorf("exhaustive check of scripts %v stopped at the budget of %d replays: %w", scripts, k.budget, err)
		}
		if err != nil {
			return err
		}
	}
	st.checks++
	st.walls = append(st.walls, time.Since(t0).Seconds())
	if calOps == 0 {
		burst()
	}
	st.slows = append(st.slows, slowdown(calNs, calOps))
	st.perTraces = append(st.perTraces, st.traces-traces0)
	runtime.ReadMemStats(&after)
	st.allocBytes += after.TotalAlloc - before.TotalAlloc
	tr.record(root, 0, 0, "modelcheck.check", rootStart, tr.now())
	return nil
}

// drive runs whole checks back to back until window has passed and at
// least minChecks (and one) have run.
func (k *checker) drive(window time.Duration, minChecks int, tr *tracer) (*checkStats, error) {
	st := &checkStats{}
	cal := newCalTable(0xC0FFEE)
	runtime.GC()
	start := time.Now()
	for st.checks < max(minChecks, 1) || time.Since(start) < window {
		if err := k.run(st, cal, tr); err != nil {
			return st, err
		}
	}
	return st, nil
}
