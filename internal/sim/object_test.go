package sim_test

import (
	"fmt"
	"math"
	"testing"

	"hiconc/internal/sim"
)

// label is a named string type: State must not take it for a plain string,
// since %v renders it through its String method.
type label string

func (l label) String() string { return "label:" + string(l) }

// TestStateMatchesFmt: Reg and CASObj states render every value exactly as
// fmt's %v does, so no memory representation depends on how State is
// implemented.
func TestStateMatchesFmt(t *testing.T) {
	values := []sim.Value{
		"", "gone", "{1*,3,+}",
		0, -7, math.MinInt, math.MaxInt,
		true, false, nil,
		struct {
			A int
			B string
		}{3, "x"},
		label("a"), int64(-7), uint8(3),
	}
	for _, v := range values {
		want := fmt.Sprintf("%v", v)
		mem := sim.NewMemory()
		if got := mem.NewReg("r", v).State(); got != want {
			t.Errorf("Reg state of %#v = %q, want %q", v, got, want)
		}
		if got := mem.NewCAS("c", v).State(); got != want {
			t.Errorf("CASObj state of %#v = %q, want %q", v, got, want)
		}
	}
}
