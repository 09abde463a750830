package main

import "math/rand"

// op is one generated operation: a kind in the top byte, a key below.
type op uint32

const (
	opLookup op = iota << 24 // set Contains
	opInsert                 // set Insert
	opRemove                 // set Remove
	opGet                    // map Get
	opInc                    // map Inc
	opDec                    // map Dec

	kindMask = 0xFF << 24
	keyMask  = 1<<24 - 1
)

func mk(kind op, key int) op { return kind | op(key) }
func (o op) kind() op        { return o & kindMask }
func (o op) key() int        { return int(o & keyMask) }
func (o op) isRead() bool    { return o.kind() == opLookup || o.kind() == opGet }

// The workload geometries named in README.md.
const (
	clients      = 2       // closed-loop client goroutines
	churnDomain  = 16384   // set-churn key domain
	churnGroups  = 256     // set-churn initial group count
	churnZipf    = 1.01    // set-churn per-stripe key skew
	readDomain   = 16384   // set-read key domain
	mapKeys      = 4096    // map-zipf / universal-map key count
	mapZipf      = 1.2     // map key skew, shared by both clients
	mapShards    = 16      // universal-map shard count
	streamLength = 1 << 20 // ops generated per client; clients cycle through them
)

// workloadRNG derives an independent generator for one purpose of one
// seed, so adding a stream never shifts another.
func workloadRNG(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// churnStreams generates the set-churn traffic: client c owns the keys
// k with (k-1)%clients == c, draws them Zipf(s=1.01) through a seeded
// rank permutation, and mixes 50% Contains, 25% Insert, 25% Remove.
func churnStreams(seed int64, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		stripe := make([]int, 0, churnDomain/clients)
		for k := c + 1; k <= churnDomain; k += clients {
			stripe = append(stripe, k)
		}
		rng := workloadRNG(seed, int64(10+c))
		rng.Shuffle(len(stripe), func(i, j int) { stripe[i], stripe[j] = stripe[j], stripe[i] })
		z := rand.NewZipf(rng, churnZipf, 1, uint64(len(stripe)-1))
		ops := make([]op, n)
		for i := range ops {
			k := stripe[z.Uint64()]
			switch r := rng.Intn(4); {
			case r < 2:
				ops[i] = mk(opLookup, k)
			case r == 2:
				ops[i] = mk(opInsert, k)
			default:
				ops[i] = mk(opRemove, k)
			}
		}
		out[c] = ops
	}
	return out
}

// readPreload returns the set-read preload: a seeded half of the domain.
func readPreload(seed int64) []int {
	perm := workloadRNG(seed, 1).Perm(readDomain)
	keys := make([]int, readDomain/2)
	for i := range keys {
		keys[i] = perm[i] + 1
	}
	return keys
}

// readStreams generates the set-read traffic: Contains of keys drawn
// uniformly from the whole domain (about half hit the preload).
func readStreams(seed int64, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		rng := workloadRNG(seed, int64(20+c))
		ops := make([]op, n)
		for i := range ops {
			ops[i] = mk(opLookup, 1+rng.Intn(readDomain))
		}
		out[c] = ops
	}
	return out
}

// mapStreams generates the map-zipf and universal-map traffic: both
// clients draw Zipf(s=1.2) ranks, 50% Get, 25% Inc, 25% Dec. The ops
// carry ranks, not keys: the clients map a rank to a key through the
// permutation of the current span of the window (mapPerms), so both clients
// share one hot set at a time and one run covers several placements of
// the hot keys.
func mapStreams(seed int64, n int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		rng := workloadRNG(seed, int64(30+c))
		z := rand.NewZipf(rng, mapZipf, 1, mapKeys-1)
		ops := make([]op, n)
		for i := range ops {
			r := int(z.Uint64())
			switch k := rng.Intn(4); {
			case k < 2:
				ops[i] = mk(opGet, r)
			case k == 2:
				ops[i] = mk(opInc, r)
			default:
				ops[i] = mk(opDec, r)
			}
		}
		out[c] = ops
	}
	return out
}

// mapPerms returns n seeded rank-to-key permutations, one per span of
// the window.
func mapPerms(seed int64, n int) [][]int32 {
	perms := make([][]int32, n)
	for p := range perms {
		perm := workloadRNG(seed, int64(100+p)).Perm(mapKeys)
		perms[p] = make([]int32, mapKeys)
		for r, k := range perm {
			perms[p][r] = int32(k + 1)
		}
	}
	return perms
}

// mapKeysOf resolves a rank stream to keys through one permutation.
func mapKeysOf(ops []op, perm []int32) []int {
	keys := make([]int, len(ops))
	for i, o := range ops {
		keys[i] = int(perm[o.key()])
	}
	return keys
}
