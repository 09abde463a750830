package hihash_test

import (
	"errors"
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/sim"
)

// TestSimSequentialCanon: every sequential execution reaching the same
// abstract key set must leave the same memory (the canonical per-group
// priority layout), and the canonical map must cover exactly the states
// reachable under the bounded spec.
func TestSimSequentialCanon(t *testing.T) {
	p := hihash.Params{T: 3, G: 2, B: 2}
	h := hihash.NewSimHarness(p, 2, hihash.VariantCanonical)
	c, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	states, err := core.Reachable(h.Spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ByState) != len(states) {
		t.Errorf("canonical map covers %d states, want %d", len(c.ByState), len(states))
	}
	// Every canonical memory must be the CanonicalGroups rendering.
	for st, mem := range c.ByState {
		want := hihash.CanonicalGroups(p, hihash.StateElems(st))
		if sim.Fingerprint(mem) != sim.Fingerprint(want) {
			t.Errorf("state %q: canonical memory %v, want %v", st, mem, want)
		}
	}
}

// TestSimPerfectHIAndLinearizable is the headline machine check: because
// every update is a single CAS on one group word, the simulated twin is
// perfectly history independent — the strongest class of Definition 5 —
// and linearizable, over every explored interleaving. Perfect HI implies
// state-quiescent HI; both classes are checked explicitly.
func TestSimPerfectHIAndLinearizable(t *testing.T) {
	p := hihash.Params{T: 3, G: 2, B: 1}
	h := hihash.NewSimHarness(p, 2, hihash.VariantCanonical)
	c, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	a, b := sameGroupKeys(t, p.T, p.G)
	other := 1
	for other == a || other == b {
		other++
	}
	scripts := [][][]core.Op{
		{{ins(a)}, {ins(b)}},              // same group: contention + Full race
		{{ins(a)}, {ins(other)}},          // distinct groups in parallel
		{{ins(a)}, {rem(a)}},              // conflicting updates on one key
		{{ins(a), rem(a)}, {ins(b)}},      // churn against a Full-prone insert
		{{ins(a), look(b)}, {ins(other)}}, // reads interleaved with updates
		{{rem(a), ins(b)}, {ins(a)}},      // remove-first races
	}
	maxSteps := 12
	if !testing.Short() {
		maxSteps = 16
	}
	for _, class := range []hicheck.ObsClass{hicheck.Perfect, hicheck.StateQuiescent} {
		checkExhaustive(t, c, h, scripts, class, maxSteps, 400000)
	}
	// Deep randomized pass over full executions.
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.Perfect, 300, 17, 3000, true); err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
}

// TestSimRandomWideGeometry fuzzes a roomier geometry (B=2, three keys)
// where inserts, removes and Full responses all occur.
func TestSimRandomWideGeometry(t *testing.T) {
	p := hihash.Params{T: 3, G: 2, B: 2}
	h := hihash.NewSimHarness(p, 3, hihash.VariantCanonical)
	c, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	scripts := [][][]core.Op{
		{{ins(1), rem(2)}, {ins(2), look(1)}, {ins(3)}},
		{{ins(1), ins(2)}, {rem(1), ins(3)}, {look(2), rem(3)}},
	}
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.Perfect, 150, 99, 4000, true); err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
}

// TestSimAppendAblationFails: when inserts append instead of keeping
// priority order, two insertion orders of the same pair leave different
// slot layouts — the checker must refute history independence already at
// the sequential level.
func TestSimAppendAblationFails(t *testing.T) {
	h := hihash.NewSimHarness(hihash.Params{T: 3, G: 2, B: 2}, 2, hihash.VariantAppend)
	_, err := hicheck.BuildCanon(h, 2, 2000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		t.Fatalf("BuildCanon err = %v, want a sequential HI violation", err)
	}
}
