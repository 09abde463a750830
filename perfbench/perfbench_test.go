package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hiconc/internal/sim"
)

// quick returns options small enough for a unit test.
func quick(workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 7
	o.window = 200 * time.Millisecond
	o.setupReps = 1
	o.repBudget = 0
	o.minChecks = 1
	o.stream = 1 << 14
	o.spansDir = "" // set per test
	o.suite = suiteConfig{rounds: 3, replayOps: 256, passes: 1, removeKeys: 32, growReps: 3, refOps: 1000}
	return o
}

// flipOnce answers the first Contains wrongly.
type flipOnce struct {
	setTarget
	done atomic.Bool
}

func (f *flipOnce) Contains(k int) bool {
	v := f.setTarget.Contains(k)
	if f.done.CompareAndSwap(false, true) {
		return !v
	}
	return v
}

func TestFlippedContainsIsCountedAsFailed(t *testing.T) {
	for _, w := range []string{"set-churn", "set-read"} {
		o := quick(w)
		o.wrapSet = func(s setTarget) setTarget { return &flipOnce{setTarget: s} }
		e, _ := measure(o, nil)
		res := e.result()
		if res.Failed != 1 || res.Correct {
			t.Errorf("%s: failed=%d correct=%v, want one failed op and an incorrect run", w, res.Failed, res.Correct)
		}
		if share := float64(res.Failed) / float64(res.Attempted); share <= 0 {
			t.Errorf("%s: failed_op_share %g, want > 0", w, share)
		}
	}
}

// tampered reports a representation one slot off the real one.
type tampered struct{ setTarget }

func (t tampered) Snapshot() string {
	return strings.Replace(t.setTarget.Snapshot(), "g0={", "g0={1,", 1)
}

func TestTamperedSnapshotFailsTheRun(t *testing.T) {
	o := quick("set-churn")
	o.wrapSet = func(s setTarget) setTarget { return tampered{s} }
	e, err := measure(o, nil)
	if err == nil || !strings.Contains(err.Error(), "not canonical") {
		t.Fatalf("err = %v, want a non-canonical snapshot error", err)
	}
	if e.result().Correct {
		t.Error("a run with a non-canonical final snapshot reported correct")
	}
}

func TestModelcheckBudgetTooSmallFails(t *testing.T) {
	o := quick("modelcheck")
	o.budget = 100
	e, err := measure(o, nil)
	if !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("err = %v, want sim.ErrBudget", err)
	}
	if e.result().Correct {
		t.Error("a budget-truncated check reported correct")
	}
}

// stuckOnce blocks the first Insert until release is closed, standing in
// for an operation that never returns (a livelock).
type stuckOnce struct {
	setTarget
	once    atomic.Bool
	release chan struct{}
}

func (s *stuckOnce) Insert(k int) {
	if s.once.CompareAndSwap(false, true) {
		<-s.release
	}
	s.setTarget.Insert(k)
}

func TestStalledOperationFailsTheRun(t *testing.T) {
	o := quick("set-churn")
	o.stall = 300 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	o.wrapSet = func(s setTarget) setTarget { return &stuckOnce{setTarget: s, release: release} }
	e, err := measure(o, nil)
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("err = %v, want a no-progress error", err)
	}
	if e.result().Correct {
		t.Error("a run with a stalled operation reported correct")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameNames fails unless got holds exactly the names and units of want.
func sameNames(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json metric %s not printed", label, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", label, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: printed metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command knows %v", names, workloads)
	}
	// The extra workloads print the same metrics.
	for _, w := range append(slices.Clone(workloads), extraWorkloads...) {
		res, err := execute(quick(w), io.Discard)
		if err != nil || !res.Correct {
			t.Fatalf("%s: correct=%v err=%v", w, res.Correct, err)
		}
		sameNames(t, w+" -trace 0", res.Metrics, b.EndToEnd)
		if raceBuild {
			// Under the race detector one map grow can stall both
			// clients for most of this short window, so a per-pair
			// median may truly read 0.
			continue
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
	o := quick("set-read")
	o.trace = true
	o.spansDir = t.TempDir()
	res, err := execute(o, io.Discard)
	if err != nil || !res.Correct {
		t.Fatalf("traced run: correct=%v err=%v", res.Correct, err)
	}
	sameNames(t, "set-read -trace 1", res.Metrics, b.PerLayer)
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "set-read", "-seconds", "0"},
		{"-workload", "set-read", "-trace", "2"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestQuantileSpreadsTies(t *testing.T) {
	xs := []uint32{5, 5, 5, 5, 7, 7, 7, 7, 9, 9}
	if q := quantile(xs, 0.5); q <= 6.5 || q >= 7.5 {
		t.Errorf("p50 = %v, want inside the tie block of 7 (6.5, 7.5)", q)
	}
	if q := quantile(slices.Clone(xs), 0.99); q < 8.5 || q > 9.5 {
		t.Errorf("p99 = %v, want inside the tie block of 9", q)
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25 as statistics.quantiles gives", q1, q3)
	}
}
