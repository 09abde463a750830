// Command hitrace renders paper-figure-style execution traces:
//
//	E3 — Figure 1: an annotated execution of Algorithm 2 with each
//	     configuration tagged by the observation classes that admit it
//	     (P = mid-update, perfect HI only; S = state-quiescent;
//	     Q = quiescent).
//	E6 — Figure 3: the head-mode alternation of the universal construction
//	     (mode A ⟨q,⊥⟩ to mode B ⟨q',⟨r,j⟩⟩ and back).
//	E25 — a Figure-1-style timeline of a real execution: a displacing
//	      insert storm racing lookups on the native hash set, captured by
//	      the flight recorder (internal/hirec) and rendered event by
//	      event with the protocol steps each goroutine performed.
//
// E3 and E6 render simulated schedules, so their output is
// deterministic; E25 records a live run, so its interleaving (and the
// timestamps) differ run to run.
//
// Usage:
//
//	hitrace [-exp E3,E6,E25|all]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"

	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/llsc"
	"hiconc/internal/obj"
	"hiconc/internal/registers"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
	"hiconc/internal/trace"
	"hiconc/internal/universal"
)

var expFlag = flag.String("exp", "all", "experiments to render: E3, E6, E25 or 'all'")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hitrace:", err)
		os.Exit(1)
	}
}

// experiments lists the renderings in output order. -exp is validated
// against their ids, so a typo fails loudly instead of selecting nothing.
var experiments = []struct {
	id  string
	run func()
}{{"E3", runE3}, {"E6", runE6}, {"E25", runE25}}

// run renders the experiments named by -exp (split from main so the tests
// can drive it in-process).
func run() error {
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(e))] = true
	}
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	for e := range want {
		if e != "ALL" && !slices.Contains(ids, e) {
			return fmt.Errorf("unknown experiment %q in -exp (have %s or 'all')",
				e, strings.Join(ids, ", "))
		}
	}
	for _, e := range experiments {
		if want["ALL"] || want[e.id] {
			e.run()
		}
	}
	return nil
}

func runE3() {
	fmt.Println("=== E3 (Figure 1): Write(2) ‖ Read on Algorithm 2, K=4")
	h := registers.NewAlg2(4, 4)
	scripts := [][]core.Op{
		{{Name: spec.OpWrite, Arg: 2}},
		{{Name: spec.OpRead}},
	}
	// Interleave: the reader scans while the write is mid-flight, as in
	// Figure 1's points ② and ③.
	sch := &sim.Phases{List: []sim.Phase{
		{PID: 0, Steps: 2}, {PID: 1, Steps: 3}, {PID: 0, Steps: 10}, {PID: 1, Steps: 20},
	}}
	tr := h.BuildScripts(scripts).Run(sch, 200)
	fmt.Print(trace.Figure1(tr))
	fmt.Println("legend: P = state-changing op pending (perfect HI observers only)")
	fmt.Println("        S = state-quiescent (Definition 7)   Q = quiescent (Definition 8)")
	fmt.Println()
}

func runE6() {
	fmt.Println("=== E6 (Figure 3): head-mode alternation of Algorithm 5 (counter, n=2, CAS cells)")
	h := universal.CounterHarness(4, 2, llsc.CASFactory{}, universal.Full)
	inc := core.Op{Name: spec.OpInc}
	dec := core.Op{Name: spec.OpDec}
	tr := h.BuildScripts([][]core.Op{{inc, inc}, {inc, dec}}).Run(&sim.RoundRobin{Quantum: 3}, 2000)
	fmt.Print(trace.HeadModes(tr))
	fmt.Println("(mode A = <q,⊥>, mode B = <q',<r,pj>>; Invariant 22: the two strictly alternate,")
	fmt.Println(" and each B->A transition erases the response while preserving the state)")
	fmt.Println()
	fmt.Println("operations (responses are fetch-and-inc/dec previous values):")
	fmt.Print(trace.Summary(tr))
	fmt.Println()
}

func runE25() {
	fmt.Println("=== E25: native flight recording — displacing inserts ‖ lookups on obj.HashSet")
	const domain, groups = 8, 2
	// The keys homing at group 0: one more than the group holds, inserted
	// largest first so the final (smallest, highest-priority) insert must
	// mark a resident for relocation — the recorded protocol steps show
	// the displacement happening.
	var heavy []int
	for k := 1; k <= domain; k++ {
		if hihash.GroupOf(k, groups) == 0 {
			heavy = append(heavy, k)
		}
	}
	if len(heavy) > hihash.SlotsPerGroup+1 {
		heavy = heavy[:hihash.SlotsPerGroup+1]
	}
	flight := hirec.Enable(1 << 10)
	s := obj.NewHashSetWithGroups(domain, groups)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := len(heavy) - 1; i >= 0; i-- {
			s.Insert(heavy[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			s.Contains(heavy[i%len(heavy)])
		}
	}()
	wg.Wait()
	hirec.Disable()
	fmt.Print(trace.NativeTimeline(flight.Snapshot()))
	fmt.Println("legend: >>> invoke and <<< return bracket one operation (gN = recorder lane);")
	fmt.Println("        · step marks a labeled protocol CAS performed inside some operation")
	fmt.Println("(a live run: the interleaving and timestamps differ between invocations)")
}
