package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hiconc/internal/hihash"
	"hiconc/internal/obj"
	"hiconc/internal/shard"
)

// setTarget is the part of obj.HashSet the set workloads drive. Tests
// wrap it to inject wrong answers and tampered snapshots.
type setTarget interface {
	Contains(int) bool
	Insert(int)
	Remove(int)
	NumGroups() int
	Elements() []int
	Snapshot() string
}

// mapHandle is one client's view of a map under test.
type mapHandle interface {
	Get(int) int
	Inc(int) int
	Dec(int) int
}

// mapTarget is a map under test: obj.HashMap or obj.ShardedMap.
type mapTarget interface {
	handle(c int) mapHandle
	Counts() map[int]int
	Snapshot() string
	// canonical is the representation the map must hold at quiescence
	// when its counts are counts.
	canonical(counts map[int]int) string
	// table returns the bucket count (0 when the map has no bucket
	// array) and the bytes of its table.
	table() (buckets, bytes int)
}

// hashMap adapts obj.HashMap, which needs no per-client handles.
type hashMap struct{ *obj.HashMap }

func (m hashMap) handle(int) mapHandle        { return m.HashMap }
func (m hashMap) buckets() int                { return strings.Count(m.Snapshot(), " | ") + 1 }
func (m hashMap) table() (buckets, bytes int) { return m.buckets(), 8 * m.buckets() }
func (m hashMap) canonical(counts map[int]int) string {
	return hihash.CanonicalMapSnapshot(mapKeys, m.buckets(), counts)
}

// shardedMap adapts obj.ShardedMap (plain Algorithm 5 shards).
type shardedMap struct {
	*obj.ShardedMap
	handles []*obj.ShardedMapHandle
}

func newShardedMap() shardedMap {
	m := shardedMap{ShardedMap: obj.NewShardedMap(clients, mapKeys, mapShards)}
	for c := 0; c < clients; c++ {
		m.handles = append(m.handles, m.Handle(c))
	}
	return m
}

func (m shardedMap) handle(c int) mapHandle { return m.handles[c] }
func (m shardedMap) table() (int, int)      { return 0, 16 * len(m.Counts()) }
func (m shardedMap) canonical(counts map[int]int) string {
	return shard.CanonicalMapSnapshot(clients, mapKeys, mapShards, counts)
}

// nativeRun is one set or map workload, ready to drive: the generated
// per-client streams, the call into the system for one operation, and
// the oracle that checks each response.
type nativeRun struct {
	streams [][]op
	// perms, when set, maps the ranks the streams carry to keys: the
	// window is cut into len(perms) equal spans, each with its own
	// permutation (the map workloads).
	perms [][]int32
	every int // time one operation in every this many
	apply func(c int, o op) int
	// check records o in client c's model and reports whether rsp
	// agrees with it.
	check func(c int, o op, rsp int) bool
	// verify checks the final state at quiescence; it returns the
	// number of operations the state contradicts, and an error when
	// the representation is not canonical.
	verify   func() (int64, error)
	spanName func(o op) string
	// table reports the final table: its group or bucket count, its
	// bytes and the live keys (for table_bytes_per_key).
	table func() (groups, bytes, live int)
	// setupUpdates holds update latencies measured during set-up (the
	// set-read preload), for a workload whose window has no updates.
	setupUpdates []uint32
}

// stallError reports a client stuck in one operation, with the
// goroutine stacks at the moment it was detected.
type stallError struct {
	msg    string
	stacks []byte
}

func (e *stallError) Error() string { return e.msg }

// samples holds one client's timed operations of one kind: duration and
// the pair of phases (see drive) the operation started in.
type samples struct {
	dur []uint32
	seg []uint8
}

// sampleCap bounds the samples one client keeps per kind.
const sampleCap = 1 << 21

func (s *samples) add(seg int, d time.Duration) {
	if len(s.dur) < sampleCap {
		s.dur = append(s.dur, uint32(min(d, 1<<32-1)))
		s.seg = append(s.seg, uint8(seg))
	}
}

// clientStats is what one closed-loop client measured; the slices are
// indexed by pair (see drive).
type clientStats struct {
	attempted, failed int64
	writes            int64 // state-changing operations attempted
	segOps            []int64
	reads, updates    samples
	// the calibration phases: untimed ops and their wall time, and the
	// ops timed on their own
	calOps []int64
	calNs  []int64
	calLat samples
}

// passStats summarises one measured window. The figures are medians
// over pairs of host-normalised per-pair values (calib.go); raw* are the
// same medians unnormalised.
type passStats struct {
	attempted, failed, writes                  int64
	throughput                                 float64 // ops/s
	lookupP50, lookupP99, updateP50, updateP99 float64
	updateMean                                 float64
	rawThroughput, rawLookupP50, rawUpdateMean float64
	slowdown, latSlowdown                      float64 // what the calibration saw
	lookupSamples, updateSamples               int
	allocPerOp                                 float64
}

// pairLen is the target length of one pair of phases: the workload for
// half of it, then the calibration loop for the other half.
const pairLen = 200 * time.Millisecond

// checkStride is how many operations a client runs between clock reads
// of the phase deadline; calBlock the same for calibration ops.
const (
	checkStride = 64
	calBlock    = 1024
)

// minSamples is the fewest timed operations a pair needs for its
// quantiles to count.
const minSamples = 100

// drive runs the closed loop: clients goroutines, each sending its next
// operation only when the previous one returned, for window. The window
// is cut into pairs of equal phases; in the first phase of a pair the
// clients run the workload, in the second the calibration loop, on the
// same schedule. It returns once every client has stopped, or with an
// error when a client is still inside one operation stall after the
// window closed: a lock-free object that stops making progress (a
// livelock) fails the run instead of hanging it. The stuck goroutine
// cannot be stopped; the process exits. tracers, when non-nil, receive
// one span per timed operation.
func (w *nativeRun) drive(window, stall time.Duration, tracers []*tracer) (passStats, error) {
	pairs := min(max(int(window/pairLen), 1), 250)
	phase := window / time.Duration(2*pairs)
	stats := make([]*clientStats, clients)
	cals := make([]*calTable, clients)
	for c := range stats {
		stats[c] = &clientStats{
			segOps:  make([]int64, pairs),
			reads:   samples{make([]uint32, 0, sampleCap), make([]uint8, 0, sampleCap)},
			updates: samples{make([]uint32, 0, sampleCap), make([]uint8, 0, sampleCap)},
			calOps:  make([]int64, pairs),
			calNs:   make([]int64, pairs),
		}
		cals[c] = newCalTable(uint32(c))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := make(chan struct{})
	var wg sync.WaitGroup
	var start time.Time
	for c := 0; c < clients; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func(c int, tr *tracer) {
			defer wg.Done()
			<-begin
			st := stats[c]
			ops := 0
			for p := 0; p < pairs; p++ {
				end := start.Add(time.Duration(2*p+1) * phase)
				ops = w.client(c, ops, p, start, window, end, st, tr)
				calibrate(cals[c], p, start.Add(time.Duration(2*p+2)*phase), st)
			}
		}(c, tr)
	}
	start = time.Now()
	close(begin)
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(window + stall):
		buf := make([]byte, 1<<16)
		return passStats{}, &stallError{msg: fmt.Sprintf("no progress: a client's operation had not returned %v after the %v window closed (livelock)", stall, window), stacks: buf[:runtime.Stack(buf, true)]}
	}
	runtime.ReadMemStats(&after)

	var ps passStats
	for _, st := range stats {
		ps.attempted += st.attempted
		ps.failed += st.failed
		ps.writes += st.writes
	}
	ps.allocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ps.attempted)

	// Per pair: the slowdowns the calibration phase saw, and the
	// workload phase's figures.
	slow := make([]float64, pairs)
	latSlow := make([]float64, pairs)
	calLat := perPair(stats, pairs, func(st *clientStats) *samples { return &st.calLat })
	reads := perPair(stats, pairs, func(st *clientStats) *samples { return &st.reads })
	updates := perPair(stats, pairs, func(st *clientStats) *samples { return &st.updates })
	var thr, rawThr, l50, l99, rawL50, u50, u99, um, rawUm []float64
	for p := 0; p < pairs; p++ {
		var n, cops, cns int64
		for _, st := range stats {
			n += st.segOps[p]
			cops += st.calOps[p]
			cns += st.calNs[p]
		}
		if cops == 0 || len(calLat[p]) < minSamples {
			continue
		}
		slow[p] = float64(cns) / float64(cops) / calNominalNs
		latSlow[p] = quantile(calLat[p], 0.50) / calNominalLatNs
		rate := float64(n) / phase.Seconds()
		rawThr = append(rawThr, rate)
		thr = append(thr, rate*slow[p])
		if xs := reads[p]; len(xs) >= minSamples {
			v := quantile(xs, 0.50)
			rawL50 = append(rawL50, v)
			l50 = append(l50, v/latSlow[p])
			l99 = append(l99, quantile(xs, 0.99)/latSlow[p])
			ps.lookupSamples += len(xs)
		}
		if xs := updates[p]; len(xs) >= minSamples {
			m := mean(xs)
			rawUm = append(rawUm, m)
			um = append(um, m/latSlow[p])
			u50 = append(u50, quantile(xs, 0.50)/latSlow[p])
			u99 = append(u99, quantile(xs, 0.99)/latSlow[p])
			ps.updateSamples += len(xs)
		}
	}
	ps.throughput, ps.rawThroughput = median(thr), median(rawThr)
	ps.lookupP50, ps.lookupP99, ps.rawLookupP50 = median(l50), median(l99), median(rawL50)
	ps.updateP50, ps.updateP99 = median(u50), median(u99)
	ps.updateMean, ps.rawUpdateMean = median(um), median(rawUm)
	ps.slowdown, ps.latSlowdown = median(nonZero(slow)), median(nonZero(latSlow))
	return ps, nil
}

// perPair pools the clients' samples of one kind by pair.
func perPair(stats []*clientStats, pairs int, pick func(*clientStats) *samples) [][]uint32 {
	per := make([][]uint32, pairs)
	for _, st := range stats {
		s := pick(st)
		for i, d := range s.dur {
			per[s.seg[i]] = append(per[s.seg[i]], d)
		}
	}
	return per
}

func nonZero(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}

// calibrate runs the calibration loop until end, recording it as pair p:
// blocks of calBlock untimed ops, each followed by one op timed alone.
func calibrate(cal *calTable, p int, end time.Time, st *clientStats) {
	for time.Now().Before(end) {
		d := cal.burst(calBlock)
		st.calOps[p] += calBlock
		st.calNs[p] += d.Nanoseconds()
		t0 := time.Now()
		h := cal.op()
		st.calLat.add(p, time.Since(t0))
		calSink.Add(uint64(h))
	}
}

// client is one closed-loop client's workload phase of pair p: it runs
// client c's stream from position i until end, checking every response
// against its model and timing every w.every-th operation individually,
// and returns the position it stopped at.
func (w *nativeRun) client(c, i, p int, start time.Time, window time.Duration, end time.Time, st *clientStats, tr *tracer) int {
	ops := w.streams[c]
	root := tr.id()
	rootStart := tr.now()
	n := st.attempted
	var perm []int32
	if w.perms != nil {
		perm = w.perms[min(int(time.Since(start)*time.Duration(len(w.perms))/window), len(w.perms)-1)]
	}
	for {
		for j := 0; j < checkStride; j++ {
			o := ops[i]
			if i++; i == len(ops) {
				i = 0
			}
			if perm != nil {
				o = mk(o.kind(), int(perm[o.key()]))
			}
			var rsp int
			if n%int64(w.every) == 0 {
				t0 := time.Now()
				rsp = w.apply(c, o)
				d := time.Since(t0)
				if o.isRead() {
					st.reads.add(p, d)
				} else {
					st.updates.add(p, d)
				}
				if tr != nil {
					s := int64(t0.Sub(tr.base))
					tr.add(root, int64(c)<<40|n, w.spanName(o), s, s+int64(d))
				}
			} else {
				rsp = w.apply(c, o)
			}
			if !w.check(c, o, rsp) {
				st.failed++
			}
			if !o.isRead() {
				st.writes++
			}
			n++
		}
		st.segOps[p] += checkStride
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if perm != nil {
			perm = w.perms[min(int(now.Sub(start)*time.Duration(len(w.perms))/window), len(w.perms)-1)]
		}
	}
	st.attempted = n
	tr.record(root, 0, 0, "client", rootStart, tr.now())
	return i
}

// --- the set workloads ------------------------------------------------

// setSpan names the obj.HashSet call an op makes.
func setSpan(o op) string {
	switch o.kind() {
	case opLookup:
		return "obj.HashSet.Contains"
	case opInsert:
		return "obj.HashSet.Insert"
	default:
		return "obj.HashSet.Remove"
	}
}

func applySet(s setTarget, o op) int {
	switch o.kind() {
	case opLookup:
		if s.Contains(o.key()) {
			return 1
		}
		return 0
	case opInsert:
		s.Insert(o.key())
	case opRemove:
		s.Remove(o.key())
	default:
		panic(fmt.Sprintf("perfbench: op kind %#x on a set", o.kind()))
	}
	return 0
}

// setTable reports a set's group array and its live keys.
func setTable(s setTarget) (groups, bytes, live int) {
	return s.NumGroups(), 8 * s.NumGroups(), len(s.Elements())
}

// verifySet compares the set's representation with the canonical layout
// of want. A mismatch is an HI violation (or a lost update) and fails the
// run.
func verifySet(s setTarget, domain int, want []bool) error {
	var elems []int
	for k, in := range want {
		if in {
			elems = append(elems, k)
		}
	}
	got := s.Snapshot()
	if exp := hihash.CanonicalSetSnapshot(domain, s.NumGroups(), elems); got != exp {
		return fmt.Errorf("final snapshot of %d keys over %d groups is not canonical", len(elems), s.NumGroups())
	}
	return nil
}

// newChurnRun sets up set-churn on s (an empty obj.HashSet with
// churnGroups groups): each client checks every Contains against its
// private model of its own key stripe.
func newChurnRun(s setTarget, streams [][]op) *nativeRun {
	models := make([][]bool, clients)
	for c := range models {
		models[c] = make([]bool, churnDomain+1)
	}
	return &nativeRun{
		streams:  streams,
		every:    16,
		apply:    func(_ int, o op) int { return applySet(s, o) },
		spanName: setSpan,
		check: func(c int, o op, rsp int) bool {
			m := models[c]
			switch o.kind() {
			case opLookup:
				return (rsp == 1) == m[o.key()]
			case opInsert:
				m[o.key()] = true
			case opRemove:
				m[o.key()] = false
			}
			return true
		},
		verify: func() (int64, error) {
			want := make([]bool, churnDomain+1)
			for _, m := range models {
				for k, in := range m {
					want[k] = want[k] || in
				}
			}
			return 0, verifySet(s, churnDomain, want)
		},
		table: func() (int, int, int) { return setTable(s) },
	}
}

// newReadRun sets up set-read on s (an empty default-size obj.HashSet):
// it preloads s, timing every preload Insert, and checks every Contains
// against the preload.
func newReadRun(s setTarget, preload []int, streams [][]op) *nativeRun {
	in := make([]bool, readDomain+1)
	upd := make([]uint32, 0, len(preload))
	for _, k := range preload {
		t0 := time.Now()
		s.Insert(k)
		upd = append(upd, uint32(time.Since(t0)))
		in[k] = true
	}
	return &nativeRun{
		streams:      streams,
		every:        128,
		apply:        func(_ int, o op) int { return applySet(s, o) },
		spanName:     setSpan,
		check:        func(_ int, o op, rsp int) bool { return (rsp == 1) == in[o.key()] },
		verify:       func() (int64, error) { return 0, verifySet(s, readDomain, in) },
		table:        func() (int, int, int) { return setTable(s) },
		setupUpdates: upd,
	}
}

// --- the map workloads ------------------------------------------------

func mapSpanNamer(prefix string) func(o op) string {
	get, inc, dec := prefix+".Get", prefix+".Inc", prefix+".Dec"
	return func(o op) string {
		switch o.kind() {
		case opGet:
			return get
		case opInc:
			return inc
		default:
			return dec
		}
	}
}

// newMapRun sets up map-zipf or universal-map on m. Each client keeps
// the net Inc/Dec it issued per key; at the end the map's counts must
// equal the clients' nets summed, and its representation must be the
// canonical one of those counts.
func newMapRun(m mapTarget, streams [][]op, perms [][]int32, every int, spanPrefix string) *nativeRun {
	nets := make([][]int, clients)
	handles := make([]mapHandle, clients)
	for c := range nets {
		nets[c] = make([]int, mapKeys+1)
		handles[c] = m.handle(c)
	}
	return &nativeRun{
		streams:  streams,
		perms:    perms,
		every:    every,
		spanName: mapSpanNamer(spanPrefix),
		apply: func(c int, o op) int {
			h := handles[c]
			switch o.kind() {
			case opGet:
				return h.Get(o.key())
			case opInc:
				return h.Inc(o.key())
			case opDec:
				return h.Dec(o.key())
			}
			panic(fmt.Sprintf("perfbench: op kind %#x on a map", o.kind()))
		},
		check: func(c int, o op, _ int) bool {
			switch o.kind() {
			case opInc:
				nets[c][o.key()]++
			case opDec:
				nets[c][o.key()]--
			}
			return true
		},
		verify: func() (int64, error) {
			want := map[int]int{}
			for k := 1; k <= mapKeys; k++ {
				v := 0
				for c := range nets {
					v += nets[c][k]
				}
				if v != 0 {
					want[k] = v
				}
			}
			got := m.Counts()
			var wrong int64
			for k := 1; k <= mapKeys; k++ {
				if got[k] != want[k] {
					wrong++
				}
			}
			if wrong > 0 {
				return wrong, fmt.Errorf("%d keys end with counts other than the net Inc/Dec issued", wrong)
			}
			if m.Snapshot() != m.canonical(want) {
				return 0, fmt.Errorf("final snapshot of %d keys is not canonical", len(want))
			}
			return 0, nil
		},
		table: func() (int, int, int) {
			buckets, bytes := m.table()
			return buckets, bytes, len(m.Counts())
		},
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
