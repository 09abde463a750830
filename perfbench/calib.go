package main

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// The calibration loop: a fixed computation, timed in the same process
// and interleaved with the workload, that measures how fast the machine
// runs at that moment. The benchmark shares its cores with other
// tenants, whose load slows every instruction by up to 2x and changes
// from second to second; a slice of workload and the calibration slice
// next to it see the same machine, so their ratio does not depend on
// the load. The loop uses only the benchmark's own code, so no change
// to the program under test can move it.
//
// The end-to-end figures are reported host-normalised: each measured
// figure is scaled by the calibration loop's nominal cost over its cost
// measured beside it, so a figure reads what it would on a machine
// where the loop costs its nominal figure. The raw figures are printed
// too, and the traced run reports the slowdown the loop saw.

const (
	// calNominalNs is the nominal cost of one calibration op in an
	// untimed loop, and calNominalLatNs the median of one op timed on
	// its own (including the two clock reads). Both are the figures of
	// the 2-vCPU box the baseline in README.md was recorded on.
	calNominalNs    = 40.0
	calNominalLatNs = 90.0
	calBits         = 15 // 32 Ki slots, 128 KiB: an L2-resident table
	calKeys         = 1 << 14
	calLookups      = 4 // lookups per calibration op
)

// calTable is one goroutine's calibration state: an open-addressed table
// with a fixed hash, half full, and a fixed key sequence, so every
// process runs the same instructions over the same memory layout.
type calTable struct {
	slots []uint32
	keys  []uint32
	next  int
}

var calSink atomic.Uint64

func newCalTable(salt uint32) *calTable {
	t := &calTable{slots: make([]uint32, 1<<calBits), keys: make([]uint32, calKeys)}
	x := uint32(2463534242) ^ salt
	for i := range t.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t.keys[i] = x>>1 | 1
	}
	// Every other key is present, so half the lookups hit.
	for i := 0; i < len(t.keys); i += 2 {
		k := t.keys[i]
		h := calHash(k)
		for t.slots[h] != 0 && t.slots[h] != k {
			h = (h + 1) & (1<<calBits - 1)
		}
		t.slots[h] = k
	}
	return t
}

func calHash(k uint32) uint32 { return (k * 0x9E3779B1) >> (32 - calBits) }

// op performs one calibration op: calLookups linear-probe lookups.
func (t *calTable) op() uint32 {
	var hits uint32
	for j := 0; j < calLookups; j++ {
		k := t.keys[t.next]
		if t.next++; t.next == len(t.keys) {
			t.next = 0
		}
		h := calHash(k)
		for {
			v := t.slots[h]
			if v == k {
				hits++
				break
			}
			if v == 0 {
				break
			}
			h = (h + 1) & (1<<calBits - 1)
		}
	}
	return hits
}

// burst runs n calibration ops untimed and returns their wall time.
func (t *calTable) burst(n int) time.Duration {
	var hits uint32
	t0 := time.Now()
	for i := 0; i < n; i++ {
		hits += t.op()
	}
	d := time.Since(t0)
	calSink.Add(uint64(hits))
	return d
}

// calBurstOps is the size of the single-goroutine bursts inside a
// modelcheck check (under 1 ms); calPairOps that of the bursts paired
// with each set-up and each final check (about 3 ms).
const (
	calBurstOps = 16_384
	calPairOps  = 65_536
)

// slowdown is the machine's slowdown over nominal, from a burst of n
// ops that took d.
func slowdown(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n) / calNominalNs
}

// paired times f with a calibration burst on each side and returns f's
// wall time in seconds and the slowdown the bursts saw, their mean. The
// garbage collector is off from the first burst to the last, and a
// collection before it gives every call the same empty heap, so f's time
// does not depend on when a collection happens to fall.
func paired(cal *calTable, f func()) (secs, slow float64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := cal.burst(calPairOps)
	t0 := time.Now()
	f()
	secs = time.Since(t0).Seconds()
	after := cal.burst(calPairOps)
	return secs, slowdown(before+after, 2*calPairOps)
}
