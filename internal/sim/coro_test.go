package sim

import "testing"

// TestCoroutinesAreReused: a runner hands its coroutines back when a
// program finishes and when Stop unwinds one, so runners started one
// after another share coroutines instead of making new ones.
func TestCoroutinesAreReused(t *testing.T) {
	mem := NewMemory()
	x := mem.NewReg("x", 0)
	prog := func(p *Proc) {
		p.Read(x)
		p.Read(x)
	}
	before := len(idle.coros)
	for i := 0; i < 100; i++ {
		r := NewRunner(mem, []Program{prog, prog})
		r.Start()
		r.Step(0)
		r.Step(0) // p0 finishes; p1 is stopped before its first step
		r.Stop()
	}
	if got, want := len(idle.coros), max(before, 2); got != want {
		t.Errorf("%d idle coroutines after 100 runners, want %d", got, want)
	}
}
