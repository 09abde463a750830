package hihash

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// canonSlots returns slots in encoding order: keys ascending, restore
// flags after them, ties in their given order.
func canonSlots(slots []simSlot) []simSlot {
	sorted := append([]simSlot(nil), slots...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].flag != sorted[j].flag {
			return !sorted[i].flag
		}
		return sorted[i].key < sorted[j].key
	})
	return sorted
}

// encodeSlotsFmt is the fmt-based rendering encodeSlots must reproduce
// byte for byte.
func encodeSlotsFmt(slots []simSlot) string {
	sorted := canonSlots(slots)
	parts := make([]string, len(sorted))
	for i, sl := range sorted {
		switch {
		case sl.flag:
			parts[i] = "+"
		case sl.marked:
			parts[i] = fmt.Sprintf("%d*", sl.key)
		default:
			parts[i] = fmt.Sprint(sl.key)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// codecKeys covers one- to three-digit keys.
var codecKeys = []int{1, 2, 3, 9, 10, 123}

// slotCombos returns every group of up to maxB slots, each slot a restore
// flag or a key of codecKeys, marked or not.
func slotCombos(maxB int) [][]simSlot {
	alphabet := []simSlot{{flag: true}}
	for _, k := range codecKeys {
		alphabet = append(alphabet, simSlot{key: k}, simSlot{key: k, marked: true})
	}
	combos := [][]simSlot{nil}
	level := [][]simSlot{nil}
	for b := 1; b <= maxB; b++ {
		var next [][]simSlot
		for _, prefix := range level {
			for _, sl := range alphabet {
				next = append(next, append(append([]simSlot(nil), prefix...), sl))
			}
		}
		combos = append(combos, next...)
		level = next
	}
	return combos
}

// TestSlotCodecRoundTrip: over every slot combination up to B=3,
// encodeSlots matches the fmt rendering, and decodeSlots inverts it.
func TestSlotCodecRoundTrip(t *testing.T) {
	combos := slotCombos(3)
	for _, slots := range combos {
		enc := encodeSlots(slots)
		if want := encodeSlotsFmt(slots); enc != want {
			t.Fatalf("encodeSlots(%v) = %q, want %q", slots, enc, want)
		}
		if dec, want := decodeSlots(enc), canonSlots(slots); !reflect.DeepEqual(dec, want) {
			t.Fatalf("decodeSlots(%q) = %v, want %v", enc, dec, want)
		}
	}
	t.Logf("%d slot combinations", len(combos))
}

// TestGroupCodecRoundTrip: EncodeGroup matches the fmt rendering of the
// sorted keys and DecodeGroup inverts it, for every key multiset up to
// three keys.
func TestGroupCodecRoundTrip(t *testing.T) {
	var walk func(keys []int)
	walk = func(keys []int) {
		sorted := append([]int(nil), keys...)
		sort.Ints(sorted)
		parts := make([]string, len(sorted))
		for i, k := range sorted {
			parts[i] = fmt.Sprint(k)
		}
		want := "{" + strings.Join(parts, ",") + "}"
		enc := EncodeGroup(keys)
		if enc != want {
			t.Fatalf("EncodeGroup(%v) = %q, want %q", keys, enc, want)
		}
		if dec := DecodeGroup(enc); !reflect.DeepEqual(dec, sorted) {
			t.Fatalf("DecodeGroup(%q) = %v, want %v", enc, dec, sorted)
		}
		if len(keys) == 3 {
			return
		}
		for _, k := range codecKeys {
			walk(append(append([]int(nil), keys...), k))
		}
	}
	walk(nil)
}

// TestCodecRejectsMalformed: both decoders panic on anything encodeSlots
// or EncodeGroup cannot produce.
func TestCodecRejectsMalformed(t *testing.T) {
	bad := []string{"", "{", "}", "1,2", "{1x}", "{,}", "{1,}", "{,1}", "{x}", "{ 1}", "{0x1}", "{1,2"}
	slotBad := append(bad, "gone", "{*}", "{1**}", "{+*}", "{1,+x}")
	mustPanic := func(name, s string, f func(string)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s(%q) did not panic", name, s)
			}
		}()
		f(s)
	}
	for _, s := range slotBad {
		mustPanic("decodeSlots", s, func(s string) { decodeSlots(s) })
	}
	for _, s := range append(bad, "{+}", "{1*}") {
		mustPanic("DecodeGroup", s, func(s string) { DecodeGroup(s) })
	}
}
