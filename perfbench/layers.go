package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/histats"
	"hiconc/internal/obj"
	"hiconc/internal/shard"
	"hiconc/internal/spec"
)

// suiteConfig sizes the per-layer suite of the traced run.
type suiteConfig struct {
	rounds     int // interleaved repetitions of every replay
	replayOps  int // recorded operations per replay
	passes     int // passes over the recording per timed set replay
	removeKeys int // keys per remove / insert-new replay
	growReps   int // timed Grow() repetitions
	refOps     int // operations of the sync.Map churn comparison
}

var defaultSuite = suiteConfig{
	rounds:     9,
	replayOps:  4096,
	passes:     4,
	removeKeys: 256,
	growReps:   9,
	refOps:     20_000,
}

// sink keeps replayed results alive so no call is optimised away.
var sink atomic.Int64

// replay is one recorded operation sequence bound to one layer's entry
// point; run replays it and returns the timed nanoseconds per operation
// (untimed restore work, if any, is excluded).
type replay struct {
	name string
	run  func() float64
}

// timeOps times f, which performs n operations, in ns/op.
func timeOps(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// interleave runs every replay once per round, rotating the order from
// round to round so drift in the machine hits every layer alike, and
// returns each replay's ns/op per round.
func interleave(rounds int, tr *tracer, parent int64, rs []replay) map[string][]float64 {
	out := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for i := range rs {
			x := rs[(i+r)%len(rs)]
			s := tr.now()
			v := x.run()
			tr.add(parent, int64(r), x.name, s, tr.now())
			out[x.name] = append(out[x.name], v)
		}
	}
	return out
}

// diffMedian is the median over rounds of a[i]-b[i]: a layer's self time
// from two replays timed side by side in each round.
func diffMedian(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// suite collects the per-layer metrics and the replay spreads.
type suite struct {
	cfg    suiteConfig
	seed   int64
	tr     *tracer
	root   int64
	ms     map[string]metric
	spread map[string][]float64
}

func (s *suite) set(name string, v float64, unit string) { s.ms[name] = metric{v, unit} }

func (s *suite) interleave(rs []replay) map[string][]float64 {
	out := interleave(s.cfg.rounds, s.tr, s.root, rs)
	for k, v := range out {
		s.spread[k] = v
	}
	return out
}

// runSuite measures the per-layer timings, the same for every workload:
// the set, map and sharded replays descend one recorded sequence through
// each layer's entry point on one goroutine, and the checker section
// times one exhaustive check by phase. The work counts come from the
// workload's own traced pass (workCounts).
func runSuite(o options, tr *tracer, out io.Writer) (map[string]metric, error) {
	s := &suite{cfg: o.suite, seed: o.seed, tr: tr, ms: map[string]metric{}, spread: map[string][]float64{}}
	s.root = tr.id()
	start := tr.now()
	steps := []func() error{s.setDescent, s.removes, s.grow, s.mapLayers, s.shardedDescent, s.checker, s.refChurn}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	tr.record(s.root, 0, 0, "suite", start, tr.now())
	fmt.Fprintf(out, "layer replays (%d interleaved rounds): median ns/op, IQR/median\n", s.cfg.rounds)
	for _, k := range sortedKeys(s.spread) {
		fmt.Fprintf(out, "  %-40s %12.1f %8.3f\n", k, median(s.spread[k]), relSpread(s.spread[k]))
	}
	return s.ms, nil
}

// setDescent replays one recorded lookup sequence (and one insert-of-
// present-keys sequence) into obj.HashSet, hihash.Set.Apply(core.Op),
// the typed hihash.Set and sync.Map, all preloaded with the set-read
// preload.
func (s *suite) setDescent() error {
	preload := readPreload(s.seed)
	look := readStreams(s.seed, s.cfg.replayOps)[0]
	objSet := obj.NewHashSet(readDomain)
	typed := hihash.NewDisplaceSet(readDomain, hihash.DefaultGroups(readDomain))
	ref := conc.NewSyncMapSet()
	in := make([]bool, readDomain+1)
	for _, k := range preload {
		objSet.Insert(k)
		typed.Insert(k)
		ref.Apply(0, core.Op{Name: spec.OpInsert, Arg: k})
		in[k] = true
	}
	keys := make([]int, len(look))
	lookOps := make([]core.Op, len(look))
	var hits, misses []int
	for i, o := range look {
		keys[i] = o.key()
		lookOps[i] = core.Op{Name: spec.OpLookup, Arg: o.key()}
		if in[o.key()] {
			hits = append(hits, o.key())
		} else {
			misses = append(misses, o.key())
		}
	}
	present := preload[:min(len(preload), s.cfg.replayOps)]
	p := s.cfg.passes
	contains := func(f func(int) bool, ks []int) func() float64 {
		return func() float64 {
			return timeOps(p*len(ks), func() {
				n := 0
				for r := 0; r < p; r++ {
					for _, k := range ks {
						if f(k) {
							n++
						}
					}
				}
				sink.Add(int64(n))
			})
		}
	}
	apply := func(a conc.Applier) func() float64 {
		return func() float64 {
			return timeOps(p*len(lookOps), func() {
				n := 0
				for r := 0; r < p; r++ {
					for _, op := range lookOps {
						n += a.Apply(0, op)
					}
				}
				sink.Add(int64(n))
			})
		}
	}
	insertPresent := func(f func(int)) func() float64 {
		return func() float64 {
			return timeOps(p*len(present), func() {
				for r := 0; r < p; r++ {
					for _, k := range present {
						f(k)
					}
				}
			})
		}
	}
	r := s.interleave([]replay{
		{"obj.HashSet.Contains", contains(objSet.Contains, keys)},
		{"hihash.Set.Apply(lookup)", apply(typed)},
		{"hihash.Set.Contains", contains(typed.Contains, keys)},
		{"hihash.Set.Contains(hit)", contains(typed.Contains, hits)},
		{"hihash.Set.Contains(miss)", contains(typed.Contains, misses)},
		{"conc.SyncMapSet.Apply(lookup)", apply(ref)},
		{"obj.HashSet.Insert(present)", insertPresent(objSet.Insert)},
		{"hihash.Set.Insert(present)", insertPresent(func(k int) { typed.Insert(k) })},
	})
	s.set("obj.contains_self_ns", diffMedian(r["obj.HashSet.Contains"], r["hihash.Set.Contains"]), "ns")
	s.set("obj.update_self_ns", diffMedian(r["obj.HashSet.Insert(present)"], r["hihash.Set.Insert(present)"]), "ns")
	s.set("core.dispatch_ns", diffMedian(r["hihash.Set.Apply(lookup)"], r["hihash.Set.Contains"]), "ns")
	s.set("hihash.contains_hit_ns", median(r["hihash.Set.Contains(hit)"]), "ns")
	s.set("hihash.contains_miss_ns", median(r["hihash.Set.Contains(miss)"]), "ns")
	s.set("ref.syncmap_ratio.read", median(r["obj.HashSet.Contains"])/median(r["conc.SyncMapSet.Apply(lookup)"]), "ratio")

	// Insert of new keys into the same preloaded table; the removes that
	// restore it are not timed.
	var fresh []int
	for k := 1; k <= readDomain && len(fresh) < s.cfg.removeKeys; k++ {
		if !in[k] {
			fresh = append(fresh, k)
		}
	}
	r = s.interleave([]replay{{"hihash.Set.Insert(new)", func() float64 {
		v := timeOps(len(fresh), func() {
			for _, k := range fresh {
				typed.Insert(k)
			}
		})
		for _, k := range fresh {
			typed.Remove(k)
		}
		return v
	}}})
	s.set("hihash.insert_new_ns", median(r["hihash.Set.Insert(new)"]), "ns")
	return nil
}

// removes times hihash.Set.Remove of present and of absent keys on
// tables fixed at 256 and at 8,192 groups, both loaded to a quarter of
// their slots. Present keys are re-inserted, untimed, after each replay.
func (s *suite) removes() error {
	var rs []replay
	tables := map[int]*hihash.Set{}
	for _, g := range []int{256, 8192} {
		t := hihash.NewDisplaceSet(churnDomain, g)
		perm := workloadRNG(s.seed, int64(40+g)).Perm(churnDomain)
		nKeys := g * hihash.SlotsPerGroup / 4
		for _, k := range perm[:nKeys] {
			t.Insert(k + 1)
		}
		var hit, miss []int
		for _, k := range perm[:min(nKeys, s.cfg.removeKeys)] {
			hit = append(hit, k+1)
		}
		for _, k := range perm[nKeys : nKeys+s.cfg.removeKeys] {
			miss = append(miss, k+1)
		}
		tables[g] = t
		rs = append(rs,
			replay{fmt.Sprintf("hihash.Set.Remove(hit).g%d", g), func() float64 {
				v := timeOps(len(hit), func() {
					for _, k := range hit {
						t.Remove(k)
					}
				})
				for _, k := range hit {
					t.Insert(k)
				}
				return v
			}},
			replay{fmt.Sprintf("hihash.Set.Remove(miss).g%d", g), func() float64 {
				return timeOps(len(miss), func() {
					for _, k := range miss {
						t.Remove(k)
					}
				})
			}})
	}
	r := s.interleave(rs)
	for g, t := range tables {
		if t.NumGroups() != g {
			return fmt.Errorf("remove table grew from %d to %d groups during the replay", g, t.NumGroups())
		}
	}
	m := func(name string) float64 { return median(r[name]) }
	for _, g := range []int{256, 8192} {
		s.set(fmt.Sprintf("hihash.remove_hit_ns.g%d", g), m(fmt.Sprintf("hihash.Set.Remove(hit).g%d", g)), "ns")
		s.set(fmt.Sprintf("hihash.remove_miss_ns.g%d", g), m(fmt.Sprintf("hihash.Set.Remove(miss).g%d", g)), "ns")
	}
	big := m("hihash.Set.Remove(hit).g8192") + m("hihash.Set.Remove(miss).g8192")
	small := m("hihash.Set.Remove(hit).g256") + m("hihash.Set.Remove(miss).g256")
	s.set("hihash.remove_scaling", big/small, "ratio")
	return nil
}

// grow times Grow() on a table fixed at 1,024 groups holding 2,048 keys.
func (s *suite) grow() error {
	keys := workloadRNG(s.seed, 50).Perm(churnDomain)[:2048]
	var ns []float64
	for r := 0; r < s.cfg.growReps; r++ {
		t := hihash.NewDisplaceSet(churnDomain, 1024)
		for _, k := range keys {
			t.Insert(k + 1)
		}
		st := s.tr.now()
		t0 := time.Now()
		t.Grow()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		s.tr.add(s.root, int64(r), "hihash.Set.Grow", st, s.tr.now())
		if t.NumGroups() != 2048 {
			return fmt.Errorf("Grow left %d groups, want 2048", t.NumGroups())
		}
	}
	s.spread["hihash.Set.Grow"] = ns
	s.set("hihash.resize_grow_ns", median(ns), "ns")
	return nil
}

// workCounts adds the per-layer work counts of the workload's traced
// pass, normalised per operation: the hihash protocol and resize
// counters (set workloads), the map counters (map-zipf) and the
// universal-construction counters (universal-map). A layer the workload
// does not run reads 0.
func workCounts(ms map[string]metric, snap *histats.Snapshot, e e2e) {
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	ctr := snap.Counters
	var succ uint64
	for c := histats.CtrBoundedUpdate; c <= histats.CtrGonePlaced; c++ {
		succ += ctr[c]
	}
	ins, rem, look := ctr[histats.CtrHashInsert], ctr[histats.CtrHashRemove], ctr[histats.CtrHashLookup]
	set("hihash.cas_success_ratio", ratio(succ, succ+ctr[histats.CtrHashCASFail]), "ratio")
	set("hihash.lookup_retry_per_lookup", ratio(ctr[histats.CtrLookupRetry], look), "count/op")
	set("hihash.lookup_help_per_lookup", ratio(ctr[histats.CtrLookupHelp], look), "count/op")
	set("hihash.help_relocate_per_update", ratio(ctr[histats.CtrHelpRelocate], ins+rem), "count/op")
	set("hihash.relocations_per_insert", ratio(ctr[histats.CtrMarkSet], ins), "count/op")
	set("hihash.restores_per_remove", ratio(ctr[histats.CtrFlagPlaced], rem), "count/op")
	set("hihash.probe_len_p99", float64(snap.Hists[histats.HistProbeLen].Quantile(0.99)), "groups")
	grows := ctr[histats.CtrGrowPublished]
	set("hihash.resize_grows", float64(grows), "count")
	set("hihash.resize_drain_copies_per_grow", ratio(ctr[histats.CtrDrainCopied], grows), "count")

	upd := ctr[histats.CtrMapUpdate]
	set("hihash.map_cas_success_ratio", ratio(upd, upd+ctr[histats.CtrMapCASFail]), "ratio")
	set("hihash.map_grows", float64(ctr[histats.CtrMapGrow]), "count")
	set("hihash.map_bucket_len_p99", float64(snap.Hists[histats.HistBucketLen].Quantile(0.99)), "entries")

	var setBytes, mapBytes, finalGroups float64
	switch {
	case ins+rem+look > 0:
		setBytes = float64(e.tableBytes) / float64(max(e.live, 1))
		finalGroups = float64(e.groups)
	case upd > 0:
		mapBytes = float64(e.tableBytes) / float64(max(e.live, 1))
	}
	set("hihash.table_bytes_per_key", setBytes, "B/key")
	set("hihash.resize_final_groups", finalGroups, "groups")
	set("hihash.map_table_bytes_per_key", mapBytes, "B/key")

	// Only universal-map's writes go through conc.Universal.
	writes := uint64(e.writes)
	if ctr[histats.CtrShardOp] == 0 {
		writes = 0
	}
	set("conc.head_retry_per_update", ratio(ctr[histats.CtrHeadRetry], writes), "count/op")
	set("conc.help_per_update", ratio(ctr[histats.CtrUniversalHelp], writes), "count/op")
	idx := snap.Hists[histats.HistShardIndex]
	var most uint64
	for sh := 0; sh < mapShards; sh++ {
		most = max(most, idx.Buckets[sh])
	}
	skew := 0.0
	if idx.Count > 0 {
		skew = float64(most) / (float64(idx.Count) / mapShards)
	}
	set("shard.index_skew", skew, "ratio")
}

// ratio is a/b, 0 when b is 0 (a count that never happened).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mapLayers times the typed hihash.Map: Get, and Inc undone by an
// untimed Dec.
func (s *suite) mapLayers() error {
	m := hihash.NewMap(mapKeys, mapKeys/4)
	for _, k := range workloadRNG(s.seed, 60).Perm(mapKeys)[:mapKeys/2] {
		m.Inc(k + 1)
	}
	keys := mapKeysOf(mapStreams(s.seed, s.cfg.replayOps)[0], mapPerms(s.seed, 1)[0])
	r := s.interleave([]replay{
		{"hihash.Map.Get", func() float64 {
			return timeOps(len(keys), func() {
				n := 0
				for _, k := range keys {
					n += m.Get(k)
				}
				sink.Add(int64(n))
			})
		}},
		{"hihash.Map.Inc", func() float64 {
			v := timeOps(len(keys), func() {
				for _, k := range keys {
					m.Inc(k)
				}
			})
			for _, k := range keys {
				m.Dec(k)
			}
			return v
		}},
	})
	s.set("hihash.map_get_ns", median(r["hihash.Map.Get"]), "ns")
	s.set("hihash.map_inc_ns", median(r["hihash.Map.Inc"]), "ns")

	return nil
}

// shardedDescent replays one recorded sequence into obj.ShardedMapHandle,
// shard.Map and a direct conc.Universal per shard (routed here with
// shard.ShardOf), all preloaded alike; updates are Inc of every key
// followed by Dec of every key, which restores the state.
func (s *suite) shardedDescent() error {
	objM := obj.NewShardedMap(clients, mapKeys, mapShards).Handle(0)
	sm := shard.NewMap(clients, mapKeys, mapShards)
	direct := make([]*conc.Universal, mapShards)
	for i := range direct {
		direct[i] = conc.NewUniversal(conc.MultiCounterObj{}, clients)
	}
	directApply := func(name string, k int) int {
		return direct[shard.ShardOf(k, mapShards)].Apply(0, core.Op{Name: name, Arg: k})
	}
	for _, k := range workloadRNG(s.seed, 70).Perm(mapKeys)[:mapKeys/2] {
		objM.Inc(k + 1)
		sm.Inc(0, k+1)
		directApply(spec.OpInc, k+1)
	}
	keys := mapKeysOf(mapStreams(s.seed, s.cfg.replayOps)[0], mapPerms(s.seed, 1)[0])
	update := func(inc, dec func(int) int) func() float64 {
		return func() float64 {
			return timeOps(2*len(keys), func() {
				for _, k := range keys {
					inc(k)
				}
				for _, k := range keys {
					dec(k)
				}
			})
		}
	}
	directUpdate := update(
		func(k int) int { return directApply(spec.OpInc, k) },
		func(k int) int { return directApply(spec.OpDec, k) })
	r := s.interleave([]replay{
		{"obj.ShardedMapHandle.update", update(objM.Inc, objM.Dec)},
		{"shard.Map.update", update(func(k int) int { return sm.Inc(0, k) }, func(k int) int { return sm.Dec(0, k) })},
		{"conc.Universal.update", directUpdate},
		{"conc.Universal.read", func() float64 {
			return timeOps(len(keys), func() {
				n := 0
				for _, k := range keys {
					n += directApply(spec.OpRead, k)
				}
				sink.Add(int64(n))
			})
		}},
	})
	s.set("obj.sharded_self_ns", diffMedian(r["obj.ShardedMapHandle.update"], r["shard.Map.update"]), "ns")
	s.set("shard.op_self_ns", diffMedian(r["shard.Map.update"], r["conc.Universal.update"]), "ns")
	s.set("conc.apply_update_ns", median(r["conc.Universal.update"]), "ns")
	s.set("conc.apply_read_ns", median(r["conc.Universal.read"]), "ns")

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	directUpdate()
	runtime.ReadMemStats(&after)
	s.set("conc.alloc_bytes_per_update", float64(after.TotalAlloc-before.TotalAlloc)/float64(2*len(keys)), "B/op")

	return nil
}

// checker times one exhaustive check of the modelcheck workload by
// phase: canonical-map construction, the explorer's replays, and the
// two verdicts on each trace.
func (s *suite) checker() error {
	t0 := time.Now()
	k, err := newChecker(mcBudget)
	if err != nil {
		return err
	}
	s.set("hicheck.buildcanon_s", time.Since(t0).Seconds(), "s")
	st := &checkStats{}
	if err := k.run(st, newCalTable(0xC0FFEE), s.tr); err != nil {
		return err
	}
	s.set("sim.replays", float64(st.replays), "count")
	s.set("sim.traces", float64(st.traces), "count")
	s.set("sim.replay_self_s", st.walls[0]-st.visit.Seconds(), "s")
	s.set("hicheck.checktrace_s", st.checkTrace.Seconds(), "s")
	s.set("linearize.check_s", st.linCheck.Seconds(), "s")
	return nil
}

// refChurn replays the start of client 0's set-churn stream on a fresh
// 256-group obj.HashSet and on a fresh sync.Map, interleaved.
func (s *suite) refChurn() error {
	stream := churnStreams(s.seed, s.cfg.refOps)[0]
	lookup := make([]core.Op, len(stream))
	names := map[op]string{opLookup: spec.OpLookup, opInsert: spec.OpInsert, opRemove: spec.OpRemove}
	for i, o := range stream {
		lookup[i] = core.Op{Name: names[o.kind()], Arg: o.key()}
	}
	r := s.interleave([]replay{
		{"obj.HashSet(churn)", func() float64 {
			set := obj.NewHashSetWithGroups(churnDomain, churnGroups)
			return timeOps(len(stream), func() {
				n := 0
				for _, o := range stream {
					n += applySet(set, o)
				}
				sink.Add(int64(n))
			})
		}},
		{"conc.SyncMapSet(churn)", func() float64 {
			ref := conc.NewSyncMapSet()
			return timeOps(len(lookup), func() {
				n := 0
				for _, op := range lookup {
					n += ref.Apply(0, op)
				}
				sink.Add(int64(n))
			})
		}},
	})
	s.set("ref.syncmap_ratio.churn", median(r["obj.HashSet(churn)"])/median(r["conc.SyncMapSet(churn)"]), "ratio")
	return nil
}
