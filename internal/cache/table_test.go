package cache

import (
	"fmt"
	"math"
	"testing"

	"edgecachegroups/internal/workload"
)

// checkSlots fails unless ec's slot table is consistent with its entries:
// at most half full, one slot per entry, each entry found at its own
// index, and every entry reachable from its home slot without crossing an
// empty slot.
func checkSlots(t *testing.T, ec *EdgeCache) {
	t.Helper()
	if n := len(ec.slots); n < minSlots || n&(n-1) != 0 || 2*len(ec.entries) > n {
		t.Fatalf("%d slots for %d entries", n, len(ec.entries))
	}
	if len(ec.slots) != 1<<(32-ec.shift) {
		t.Fatalf("%d slots with shift %d", len(ec.slots), ec.shift)
	}
	used := 0
	for _, v := range ec.slots {
		if v != 0 {
			used++
		}
	}
	if used != len(ec.entries) {
		t.Fatalf("%d occupied slots for %d entries", used, len(ec.entries))
	}
	mask := len(ec.slots) - 1
	for i, e := range ec.entries {
		if got := ec.find(workload.DocID(e.doc)); got != i {
			t.Fatalf("find(%d) = %d, want %d", e.doc, got, i)
		}
		for s := ec.home(e.doc); ec.slots[s] != int32(i+1); s = (s + 1) & mask {
			if ec.slots[s] == 0 {
				t.Fatalf("doc %d is cut off from its home slot %d by empty slot %d", e.doc, ec.home(e.doc), s)
			}
		}
	}
}

// slotOf returns the slot that holds doc, or -1.
func slotOf(ec *EdgeCache, doc workload.DocID) int {
	for s, v := range ec.slots {
		if v != 0 && ec.entries[v-1].doc == int32(doc) {
			return s
		}
	}
	return -1
}

// TestFuzzDocHomes pins the home slots FuzzEdgeCacheMatchesReference's ID
// table was chosen for, so a change of hash that scatters them fails here
// rather than quietly weakening the fuzz target.
func TestFuzzDocHomes(t *testing.T) {
	ec := newCache(t, 1)
	home := func(doc workload.DocID, bits uint32) int {
		ec.shift = 32 - bits
		return ec.home(int32(doc))
	}
	for _, tc := range []struct {
		docs           []workload.DocID
		home16, home32 int
	}{
		{fuzzDocs[2:6], 15, 31},
		{fuzzDocs[6:8], 0, 0},
		{fuzzDocs[8:11], 13, 26},
		{fuzzDocs[11:14], 5, 10},
		{fuzzDocs[14:15], 7, 14},
	} {
		for _, d := range tc.docs {
			if h16, h32 := home(d, 4), home(d, 5); h16 != tc.home16 || h32 != tc.home32 {
				t.Errorf("doc %d: home %d at 16 slots and %d at 32, want %d and %d", d, h16, h32, tc.home16, tc.home32)
			}
		}
	}
	if fuzzDocs[0] != 0 || fuzzDocs[1] != math.MaxInt32 {
		t.Errorf("fuzzDocs starts %v, want 0 and MaxInt32", fuzzDocs[:2])
	}
	seen := make(map[workload.DocID]bool)
	for _, d := range fuzzDocs {
		if seen[d] {
			t.Errorf("doc %d listed twice", d)
		}
		seen[d] = true
	}
	if len(fuzzDocs) <= 2*minSlots {
		t.Errorf("%d fuzz documents cannot grow the table twice", len(fuzzDocs))
	}
}

// TestSlotTableBackwardShift builds probe chains of known layout and
// removes their entries in every order, checking find for every document
// after each removeEntry: a chain that wraps past the table's last slot, a
// chain whose hole opens just before the wrap, and a chain with an entry
// sitting at its own home slot between two that probed past it.
func TestSlotTableBackwardShift(t *testing.T) {
	// Nine documents with distinct home slots in [8, 20] at 32 slots:
	// inserting them grows the table from 16 to 32 slots.
	grow := []workload.DocID{15, 28, 33, 12, 4, 17, 9, 1, 14}
	w, z, h, c, d := fuzzDocs[2:6], fuzzDocs[6:8], fuzzDocs[8:11], fuzzDocs[11:14], fuzzDocs[14]
	for _, tc := range []struct {
		name    string
		prefill []workload.DocID
		chain   []workload.DocID
		slots   []int
	}{
		{"wrap/16", nil, []workload.DocID{w[0], w[1], w[2], z[0]}, []int{15, 0, 1, 2}},
		{"wrap/32", grow, []workload.DocID{w[0], w[1], w[2], z[0]}, []int{31, 0, 1, 2}},
		{"hole-before-wrap/16", nil, h, []int{13, 14, 15}},
		{"home-in-chain/16", nil, []workload.DocID{c[0], c[1], d, c[2]}, []int{5, 6, 7, 8}},
	} {
		for _, order := range permutations(len(tc.chain)) {
			t.Run(fmt.Sprintf("%s/%v", tc.name, order), func(t *testing.T) {
				ec := newCache(t, 1000)
				for _, doc := range append(append([]workload.DocID{}, tc.prefill...), tc.chain...) {
					if err := ec.Insert(workload.Document{ID: doc, SizeKB: 1}, 0, 0); err != nil {
						t.Fatal(err)
					}
				}
				for i, doc := range tc.chain {
					if s := slotOf(ec, doc); s != tc.slots[i] {
						t.Fatalf("doc %d in slot %d of %d, want %d", doc, s, len(ec.slots), tc.slots[i])
					}
				}
				checkSlots(t, ec)
				removed := make(map[workload.DocID]bool)
				for _, k := range order {
					gone := tc.chain[k]
					ec.removeEntry(ec.find(gone), false)
					removed[gone] = true
					checkSlots(t, ec)
					for _, doc := range append(append([]workload.DocID{}, tc.prefill...), tc.chain...) {
						i := ec.find(doc)
						if removed[doc] != (i < 0) || (i >= 0 && ec.entries[i].doc != int32(doc)) {
							t.Fatalf("after removing %d: find(%d) = %d (removed %v)", gone, doc, i, removed[doc])
						}
					}
				}
			})
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}
