package sim_test

import (
	"reflect"
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/sim"
)

// incProgram reads a register and writes back the value plus one, n times,
// as one operation per round trip. Two such processes racing exhibit lost
// updates depending on the interleaving — a convenient determinism probe.
func incProgram(r *sim.Reg, n int) sim.Program {
	return func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Invoke(core.Op{Name: "inc"}, true)
			v := p.ReadInt(r)
			p.Write(r, v+1)
			p.Return(v)
		}
	}
}

func buildIncRunner() *sim.Runner {
	mem := sim.NewMemory()
	r := mem.NewReg("x", 0)
	return sim.NewRunner(mem, []sim.Program{incProgram(r, 1), incProgram(r, 1)})
}

func TestLockStepBasics(t *testing.T) {
	r := buildIncRunner()
	tr := r.Run(&sim.RoundRobin{}, 100)
	if len(tr.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(tr.Steps))
	}
	// Alternating schedule: both read 0, both write 1 => lost update.
	if got := tr.MemAt(4)[0]; got != "1" {
		t.Errorf("final x = %s, want 1 (lost update)", got)
	}
	if len(tr.Events) != 4 {
		t.Errorf("events = %d, want 4", len(tr.Events))
	}
}

func TestSequentialScheduleNoLostUpdate(t *testing.T) {
	r := buildIncRunner()
	tr := r.Run(sim.FixedSchedule{0, 0, 1, 1}, 100)
	if got := tr.MemAt(4)[0]; got != "2" {
		t.Errorf("final x = %s, want 2", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *sim.Trace {
		return buildIncRunner().Run(sim.FixedSchedule{0, 1, 1, 0}, 100)
	}
	t1, t2 := run(), run()
	if !reflect.DeepEqual(t1.Schedule(), t2.Schedule()) {
		t.Fatal("schedules differ")
	}
	for k := 0; k <= len(t1.Steps); k++ {
		if sim.Fingerprint(t1.MemAt(k)) != sim.Fingerprint(t2.MemAt(k)) {
			t.Errorf("config %d differs between identical replays", k)
		}
	}
	if !reflect.DeepEqual(t1.Events, t2.Events) {
		t.Error("events differ between identical replays")
	}
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes with 2 steps each: C(4,2) = 6 maximal interleavings.
	n, err := sim.Explore(buildIncRunner, 100, 10000, func(*sim.Trace) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("explored %d interleavings, want 6", n)
	}
}

func TestExploreBudget(t *testing.T) {
	_, err := sim.Explore(buildIncRunner, 100, 3, func(*sim.Trace) error { return nil })
	if err != sim.ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestConfigPendingCounts(t *testing.T) {
	r := buildIncRunner()
	tr := r.Run(sim.FixedSchedule{0, 0, 1, 1}, 100)
	configs := tr.Configs()
	if len(configs) != 5 {
		t.Fatalf("configs = %d, want 5", len(configs))
	}
	wantPending := []int{0, 1, 0, 1, 0}
	for k, cfg := range configs {
		if cfg.Pending != wantPending[k] {
			t.Errorf("C_%d pending = %d, want %d", k, cfg.Pending, wantPending[k])
		}
		if (cfg.Pending == 0) != cfg.Quiescent() {
			t.Errorf("C_%d quiescence inconsistent", k)
		}
	}
}

func TestReadOnlyOpsAndStateQuiescence(t *testing.T) {
	mem := sim.NewMemory()
	x := mem.NewReg("x", 7)
	reader := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "read"}, false)
		v := p.ReadInt(x)
		p.Return(v)
	}
	writer := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "write", Arg: 9}, true)
		p.Write(x, 9)
		p.Return(0)
	}
	r := sim.NewRunner(mem, []sim.Program{writer, reader})
	tr := r.Run(sim.FixedSchedule{1, 0}, 100)
	configs := tr.Configs()
	// C_1: read completed, nothing pending; C_0 state-quiescent trivially.
	for _, cfg := range configs {
		if !cfg.StateQuiescent() && cfg.Index != 0 {
			// Only a configuration during the write could be non-state-
			// quiescent, but the write is a single step here, so the
			// configuration after it is already complete.
			t.Errorf("C_%d unexpectedly not state-quiescent", cfg.Index)
		}
	}
	if got := tr.Responses(1); len(got) != 1 || got[0] != 7 {
		t.Errorf("reader responses = %v, want [7]", got)
	}
}

func TestCASSemantics(t *testing.T) {
	mem := sim.NewMemory()
	c := mem.NewCAS("c", "a")
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "op"}, true)
		if !p.CAS(c, "a", "b") {
			p.Return(1)
			return
		}
		if p.CAS(c, "a", "x") {
			p.Return(2)
			return
		}
		if v := p.ReadCAS(c); v != "b" {
			p.Return(3)
			return
		}
		p.WriteCAS(c, "z")
		p.Return(0)
	}
	r := sim.NewRunner(mem, []sim.Program{prog})
	tr := r.Run(&sim.RoundRobin{}, 100)
	if got := tr.Responses(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("CAS semantics violated: responses %v", got)
	}
	if got := tr.MemAt(len(tr.Steps))[0]; got != "z" {
		t.Errorf("final value = %q, want z", got)
	}
}

func TestLLSCCellSemantics(t *testing.T) {
	mem := sim.NewMemory()
	c := mem.NewLLSC("c", 10)
	resps := []int{}
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "op"}, true)
		v := p.LL(c).(int)
		resps = append(resps, v)
		if !p.VL(c) {
			p.Return(1)
			return
		}
		if !p.SC(c, 11) {
			p.Return(2)
			return
		}
		// Context must now be empty: VL fails, SC fails.
		if p.VL(c) {
			p.Return(3)
			return
		}
		if p.SC(c, 12) {
			p.Return(4)
			return
		}
		p.Store(c, 13)
		p.RL(c)
		p.Return(0)
	}
	r := sim.NewRunner(mem, []sim.Program{prog})
	tr := r.Run(&sim.RoundRobin{}, 100)
	if got := tr.Responses(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("LLSC semantics violated: responses %v", got)
	}
	if got := tr.MemAt(len(tr.Steps))[0]; got != "(13|ctx=0)" {
		t.Errorf("final state = %q", got)
	}
}

func TestLLSCContextInState(t *testing.T) {
	mem := sim.NewMemory()
	c := mem.NewLLSC("c", 1)
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "op"}, true)
		p.LL(c)
		p.Return(0)
	}
	r := sim.NewRunner(mem, []sim.Program{prog, prog})
	tr := r.Run(sim.FixedSchedule{0, 1}, 100)
	// Both processes linked: context bits 0 and 1 set.
	if got := tr.MemAt(2)[0]; got != "(1|ctx=11)" {
		t.Errorf("state = %q, want (1|ctx=11)", got)
	}
}

func TestBinRegDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("writing 2 to a binary register should panic")
		}
	}()
	mem := sim.NewMemory()
	b := mem.NewBinReg("b", 0)
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "op"}, true)
		p.Write(b, 2)
		p.Return(0)
	}
	sim.NewRunner(mem, []sim.Program{prog}).Run(&sim.RoundRobin{}, 10)
}

func TestPauseResume(t *testing.T) {
	mem := sim.NewMemory()
	x := mem.NewReg("x", 0)
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "a"}, true)
		p.Write(x, 1)
		p.Return(0)
		p.Pause()
		p.Invoke(core.Op{Name: "b"}, true)
		p.Write(x, 2)
		p.Return(0)
	}
	r := sim.NewRunner(mem, []sim.Program{prog})
	r.Start()
	defer r.Stop()
	r.Step(0)
	if len(r.Runnable()) != 0 {
		t.Fatal("process should be paused, not runnable")
	}
	if got := r.Paused(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("paused = %v", got)
	}
	r.Resume(0)
	if len(r.Runnable()) != 1 {
		t.Fatal("process should be runnable after resume")
	}
	r.Step(0)
	if got := r.Mem().Snapshot()[0]; got != "2" {
		t.Errorf("x = %s, want 2", got)
	}
	if !r.Done() {
		t.Error("process should be done")
	}
}

func TestStopKillsBlockedProcs(t *testing.T) {
	mem := sim.NewMemory()
	x := mem.NewReg("x", 0)
	unwound := false
	spin := func(p *sim.Proc) {
		defer func() { unwound = true }()
		p.Invoke(core.Op{Name: "spin"}, false)
		for {
			p.Read(x) // never returns; must be killable
		}
	}
	r := sim.NewRunner(mem, []sim.Program{spin})
	r.Start()
	r.Step(0)
	r.Step(0)
	r.Stop() // must not hang
	if !unwound {
		t.Error("Stop did not run the stopped program's deferred calls")
	}
}

// TestProgramPanicReachesStep: a panic inside a program surfaces from the
// Step call that resumed it, on the caller's goroutine, and the runner can
// still be stopped afterwards.
func TestProgramPanicReachesStep(t *testing.T) {
	type boom struct{ step int }
	mem := sim.NewMemory()
	x := mem.NewReg("x", 0)
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "boom"}, true)
		p.Write(x, 1)
		p.Write(x, 2)
		panic(boom{step: 2})
	}
	r := sim.NewRunner(mem, []sim.Program{prog, incProgram(x, 1)})
	r.Start()
	r.Step(0)
	func() {
		defer func() {
			if v := recover(); v != (boom{step: 2}) {
				t.Errorf("Step panicked with %v, want %v", v, boom{step: 2})
			}
		}()
		r.Step(0)
	}()
	r.Stop() // must return, stopping the other process too
}

func TestRunnerMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := buildIncRunner()
	r.Start()
	defer r.Stop()
	mustPanic("double Start", r.Start)
	mustPanic("Resume of non-paused process", func() { r.Resume(0) })
	r.Step(0)
	r.Step(0) // p0 finished its single op and program
	mustPanic("Step of non-runnable process", func() { r.Step(0) })
}

func TestTruncatedFlag(t *testing.T) {
	r := buildIncRunner()
	tr := r.Run(&sim.RoundRobin{}, 2)
	if !tr.Truncated {
		t.Error("trace should be marked truncated")
	}
}

func TestDistance(t *testing.T) {
	if d := sim.Distance([]string{"a", "b", "c"}, []string{"a", "x", "y"}); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
}

func TestPhasesScheduler(t *testing.T) {
	mem := sim.NewMemory()
	x := mem.NewReg("x", 0)
	mk := func(val int) sim.Program {
		return func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				p.Invoke(core.Op{Name: "w"}, true)
				p.Write(x, val)
				p.Return(0)
			}
		}
	}
	r := sim.NewRunner(mem, []sim.Program{mk(1), mk(2)})
	tr := r.Run(&sim.Phases{List: []sim.Phase{{PID: 1, Steps: 2}, {PID: 0, Steps: 3}}}, 100)
	want := []int{1, 1, 0, 0, 0, 1}
	if got := tr.Schedule(); !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

func TestSequentialOps(t *testing.T) {
	tr := sim.SequentialOps(buildIncRunner, 100, func(opIdx int, runnable []int) int {
		return opIdx % 2
	})
	if tr.Truncated {
		t.Fatal("sequential run truncated")
	}
	if got := tr.MemAt(len(tr.Steps))[0]; got != "2" {
		t.Errorf("x = %s, want 2 (no lost update in sequential run)", got)
	}
}
