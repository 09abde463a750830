package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs the two cheapest verification experiments in-process and
// requires overall success: E1 (the Algorithm 1 refutation) and E21 (the
// HICHT hash table checks).
func TestSmoke(t *testing.T) {
	*expFlag = "E1,E21"
	*deepFlag = false
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	err = runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("hiverify -exp E1,E21 failed: %v\n%s", err, out)
	}
	for _, want := range []string{"REFUTED(expected)", "PASS"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeE23 runs the adversarial-observer family in-process: twin
// raw dumps, sim crash-schedule enumeration, and the native Kill matrix.
func TestSmokeE23(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 enumerates displacing crash schedules")
	}
	*expFlag = "E23"
	*deepFlag = false
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	err = runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("hiverify -exp E23 failed: %v\n%s", err, out)
	}
	for _, want := range []string{"bounded twins", "displacing twins", "sim crash schedules", "native Kill matrix"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeE25 runs the flight-recorder family in-process: a recorded
// native stress run and a recorded faultinject crash schedule, both
// machine-checked for linearizability, plus the corruption rejection.
func TestSmokeE25(t *testing.T) {
	*expFlag = "E25"
	*deepFlag = false
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	err = runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("hiverify -exp E25 failed: %v\n%s", err, out)
	}
	for _, want := range []string{"recorded stress run", "recorded crash schedule", "corrupted recording rejected", "linearizable"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeE26 runs the read-path family in-process: a recorded
// lookup-heavy run machine-checked for linearizability, reads against
// a parked relocation mark, and twin raw dumps built under concurrent
// reader hammering.
func TestSmokeE26(t *testing.T) {
	*expFlag = "E26"
	*deepFlag = false
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	err = runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("hiverify -exp E26 failed: %v\n%s", err, out)
	}
	for _, want := range []string{"recorded lookup-heavy run", "park-at-mark", "twins under readers"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestUnknownExperiment checks that a typo in -exp fails loudly before any
// experiment runs, instead of silently selecting nothing.
func TestUnknownExperiment(t *testing.T) {
	*expFlag = "E1,E99"
	err := runSelected()
	if err == nil {
		t.Fatal("expected an unknown-experiment error, got success")
	}
	if !strings.Contains(err.Error(), `unknown experiment "E99"`) {
		t.Errorf("unexpected error: %v", err)
	}
}
