package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestSmoke renders all three trace figures in-process and checks that
// the annotated configurations appear.
func TestSmoke(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runE3()
	runE6()
	runE25()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	for _, want := range []string{"E3", "E6", "E25", "native flight recording", ">>> invoke", "<<< return"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestUnknownExperiment checks that a typo in -exp fails loudly instead
// of silently rendering nothing.
func TestUnknownExperiment(t *testing.T) {
	*expFlag = "E3,E99"
	err := run()
	if err == nil {
		t.Fatal("expected an unknown-experiment error, got success")
	}
	if !strings.Contains(err.Error(), `unknown experiment "E99"`) {
		t.Errorf("unexpected error: %v", err)
	}
}
