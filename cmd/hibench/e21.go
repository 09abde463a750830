package main

import (
	"fmt"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/shard"
	"hiconc/internal/spec"
	"hiconc/internal/workload"
)

// insertRejectRate replays the mixes once, sequentially, on a fresh
// instance and returns the fraction of inserts answered with
// hihash.RspFull. Rejected inserts are cheaper than real ones (one load,
// no CAS), so the rate qualifies the bounded tables' ns/op numbers; the
// replay keeps the counting off the timed path.
func insertRejectRate(a conc.Applier, mixes [][]core.Op) float64 {
	inserts, fulls := 0, 0
	for pid, ops := range mixes {
		for _, op := range ops {
			rsp := a.Apply(pid, op)
			if op.Name == spec.OpInsert {
				inserts++
				if rsp == hihash.RspFull {
					fulls++
				}
			}
		}
	}
	if inserts == 0 {
		return 0
	}
	return float64(fulls) / float64(inserts)
}

func runE21() {
	fmt.Println("=== E21: the HICHT direct hash table vs the universal-construction path")
	const n, domain, mapKeys = 8, 16384, 256

	fmt.Println("\n    set, 10% lookups, 8 goroutines (ns/op):")
	fmt.Printf("%10s %16s %16s %18s %12s\n",
		"zipf", "hihash load=0.5", "hihash load=1.0", "sharded-universal", "sync.Map")
	type rejectRow struct {
		zipf       float64
		half, full float64
	}
	var rejects []rejectRow
	for _, s := range []float64{1.01, 1.5} {
		mixes := perKeyMixes(n, func(g *workload.Gen) []core.Op {
			return g.SetZipf(8192, domain, s, 0.1)
		})
		tag := fmt.Sprintf("set/zipf=%.2f", s)
		fmt.Printf("%10.2f %16s %16s %18s %12s\n", s,
			measurePerKey("E21", tag+"/hihash/load=0.5", hihash.NewSet(domain, domain/2), n, mixes),
			measurePerKey("E21", tag+"/hihash/load=1.0", hihash.NewSet(domain, domain/4), n, mixes),
			measurePerKey("E21", tag+"/sharded-universal/S=16", shard.NewSet(n, domain, 16), n, mixes),
			measurePerKey("E21", tag+"/syncmap", conc.NewSyncMapSet(), n, mixes))
		row := rejectRow{
			zipf: s,
			half: insertRejectRate(hihash.NewSet(domain, domain/2), mixes),
			full: insertRejectRate(hihash.NewSet(domain, domain/4), mixes),
		}
		rejects = append(rejects, row)
		record("E21", tag+"/hihash/load=0.5/reject", "reject-rate", row.half)
		record("E21", tag+"/hihash/load=1.0/reject", "reject-rate", row.full)
	}
	fmt.Println("\n    insert rejection rate of the bounded tables (RspFull; a rejected")
	fmt.Println("    insert is one load, cheaper than a real insert — qualify ns/op with")
	fmt.Println("    it):")
	for _, r := range rejects {
		fmt.Printf("      zipf=%.2f: load=0.5 %.2f%%, load=1.0 %.2f%%\n",
			r.zipf, 100*r.half, 100*r.full)
	}

	fmt.Println("\n    multi-counter map, 10% reads, Zipf s=1.2 (ns/op):")
	fmt.Printf("%16s %18s %22s\n", "hihash-map", "sharded-universal", "sharded-combining")
	mapMixes := perKeyMixes(n, func(g *workload.Gen) []core.Op {
		return g.MapZipf(8192, mapKeys, 1.2, 0.1)
	})
	fmt.Printf("%16s %18s %22s\n",
		measurePerKey("E21", "map/hihash", hihash.NewMap(mapKeys, mapKeys/4), n, mapMixes),
		measurePerKey("E21", "map/sharded-universal/S=16", shard.NewMap(n, mapKeys, 16), n, mapMixes),
		measurePerKey("E21", "map/sharded-combining/S=16", shard.NewCombiningMap(n, mapKeys, 16), n, mapMixes))
	fmt.Println("    (the direct table has no serialization point at all: lookups are one")
	fmt.Println("     atomic load, updates one CAS on the key's bucket group — every")
	fmt.Println("     relocation the canonical layout needs is folded into that CAS)")
}
