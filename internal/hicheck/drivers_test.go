package hicheck_test

import (
	"errors"
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/registers"
	"hiconc/internal/sim"
)

func TestCheckExhaustivePasses(t *testing.T) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	n, err := hicheck.CheckExhaustive(c, h, hicheck.Scripts(h, []int{1, 1}), hicheck.StateQuiescent, 12, 500000, true)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no traces explored")
	}
}

func TestCheckExhaustiveBudget(t *testing.T) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	sets := hicheck.Scripts(h, []int{1, 1})
	n, err := hicheck.CheckExhaustive(c, h, sets, hicheck.StateQuiescent, 12, 3, false)
	if !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var be *hicheck.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *hicheck.BudgetError", err)
	}
	if be.Set != 0 || be.Traces != 3 || n != 3 || len(be.Unreached) != len(sets)-1 {
		t.Errorf("truncated set %d after %d traces (returned %d), %d sets unreached; want set 0, 3 traces, %d unreached",
			be.Set, be.Traces, n, len(be.Unreached), len(sets)-1)
	}
}

func TestCheckExhaustiveRejectsBadScripts(t *testing.T) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][][]core.Op{{{rd}, {rd}}} // the writer cannot run read()
	if _, err := hicheck.CheckExhaustive(c, h, bad, hicheck.StateQuiescent, 12, 1000, false); err == nil {
		t.Fatal("invalid scripts accepted")
	}
}

func TestCheckRandomPasses(t *testing.T) {
	h := registers.NewAlg4(3, 1)
	c, err := hicheck.BuildCanon(h, 3, 800)
	if err != nil {
		t.Fatal(err)
	}
	scripts := [][][]core.Op{{{w(2), w(3)}, {rd, rd}}}
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.Quiescent, 150, 5, 400, true); err != nil {
		t.Fatal(err)
	}
}

func TestFindViolationFindsPerfectHIWitness(t *testing.T) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	v := hicheck.FindViolation(c, h, hicheck.Scripts(h, []int{1, 0}), hicheck.Perfect, 8, 10000)
	if v == nil {
		t.Fatal("no witness found for Algorithm 2 under perfect observation")
	}
	if v.Class != hicheck.Perfect {
		t.Errorf("witness class = %v", v.Class)
	}
}

func TestFindViolationReturnsNilWhenClean(t *testing.T) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if v := hicheck.FindViolation(c, h, hicheck.Scripts(h, []int{1, 1}), hicheck.StateQuiescent, 12, 500000); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}
