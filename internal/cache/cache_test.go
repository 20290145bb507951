package cache

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/workload"
)

func doc(id int, sizeKB, updateRate float64) workload.Document {
	return workload.Document{ID: workload.DocID(id), SizeKB: sizeKB, UpdateRatePerSec: updateRate}
}

func newCache(t *testing.T, capacityKB float64) *EdgeCache {
	t.Helper()
	ec, err := New(Config{CapacityKB: capacityKB, MissPenaltyMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	return ec
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{MissPenaltyMS: 1}},
		{"negative capacity", Config{CapacityKB: -1, MissPenaltyMS: 1}},
		{"zero penalty", Config{CapacityKB: 10}},
		{"negative min age", Config{CapacityKB: 10, MissPenaltyMS: 1, MinAgeSec: -1}},
		{"NaN capacity", Config{CapacityKB: math.NaN(), MissPenaltyMS: 1}},
		{"infinite capacity", Config{CapacityKB: math.Inf(1), MissPenaltyMS: 1}},
		{"NaN penalty", Config{CapacityKB: 10, MissPenaltyMS: math.NaN()}},
		{"infinite penalty", Config{CapacityKB: 10, MissPenaltyMS: math.Inf(1)}},
		{"NaN min age", Config{CapacityKB: 10, MissPenaltyMS: 1, MinAgeSec: math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestInsertAndLookup(t *testing.T) {
	ec := newCache(t, 100)
	if err := ec.Insert(doc(1, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if !ec.Lookup(1, 1, 1) {
		t.Fatal("fresh lookup missed")
	}
	if ec.Lookup(2, 1, 1) {
		t.Fatal("phantom hit")
	}
	st := ec.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ec.UsedKB() != 10 || ec.Len() != 1 {
		t.Fatalf("used=%v len=%d", ec.UsedKB(), ec.Len())
	}
}

func TestStaleVersionIsConsistencyMiss(t *testing.T) {
	ec := newCache(t, 100)
	if err := ec.Insert(doc(1, 10, 0.5), 1, 0); err != nil {
		t.Fatal(err)
	}
	if ec.Lookup(1, 2, 1) {
		t.Fatal("stale copy served")
	}
	st := ec.Stats()
	if st.StaleDrops != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ec.Len() != 0 {
		t.Fatal("stale copy not dropped")
	}
}

func TestContainsNoSideEffects(t *testing.T) {
	ec := newCache(t, 100)
	if err := ec.Insert(doc(1, 10, 0), 3, 0); err != nil {
		t.Fatal(err)
	}
	if !ec.Contains(1, 3) {
		t.Fatal("Contains missed fresh copy")
	}
	if ec.Contains(1, 4) {
		t.Fatal("Contains accepted stale copy")
	}
	if ec.Contains(2, 3) {
		t.Fatal("Contains found phantom")
	}
	st := ec.Stats()
	if st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("Contains affected stats: %+v", st)
	}
	if ec.Len() != 1 {
		t.Fatal("Contains dropped entry")
	}
}

func TestCapacityEviction(t *testing.T) {
	ec := newCache(t, 30)
	for i := 1; i <= 3; i++ {
		if err := ec.Insert(doc(i, 10, 0), 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ec.UsedKB() != 30 {
		t.Fatalf("used = %v", ec.UsedKB())
	}
	// Access docs 2,3 so doc 1 has the lowest utility.
	ec.Lookup(2, 1, 4)
	ec.Lookup(2, 1, 4)
	ec.Lookup(3, 1, 4)
	ec.Lookup(3, 1, 4)
	if err := ec.Insert(doc(4, 10, 0), 1, 5); err != nil {
		t.Fatal(err)
	}
	if ec.Len() != 3 {
		t.Fatalf("len = %d, want 3", ec.Len())
	}
	if ec.Contains(1, 1) {
		t.Fatal("low-utility doc 1 survived eviction")
	}
	if !ec.Contains(2, 1) || !ec.Contains(3, 1) || !ec.Contains(4, 1) {
		t.Fatal("wrong eviction victim")
	}
	if ec.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", ec.Stats().Evictions)
	}
}

func TestUtilityPrefersSmallHotStableDocs(t *testing.T) {
	ec := newCache(t, 1000)
	// hot small static doc vs cold large dynamic doc.
	if err := ec.Insert(doc(1, 5, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := ec.Insert(doc(2, 50, 1.0), 1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ec.Lookup(1, 1, 10)
	}
	u1, ok := ec.Utility(1, 10)
	if !ok {
		t.Fatal("doc 1 missing")
	}
	u2, ok := ec.Utility(2, 10)
	if !ok {
		t.Fatal("doc 2 missing")
	}
	if u1 <= u2 {
		t.Fatalf("hot small static utility %v <= cold large dynamic %v", u1, u2)
	}
	if _, ok := ec.Utility(9, 10); ok {
		t.Fatal("utility of absent doc reported")
	}
}

func TestInsertTooLarge(t *testing.T) {
	ec := newCache(t, 10)
	err := ec.Insert(doc(1, 11, 0), 1, 0)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if err := ec.Insert(doc(2, 0, 0), 1, 0); err == nil {
		t.Fatal("zero-size doc accepted")
	}
}

func TestReinsertRefreshesVersion(t *testing.T) {
	ec := newCache(t, 100)
	if err := ec.Insert(doc(1, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := ec.Insert(doc(1, 10, 0), 2, 5); err != nil {
		t.Fatal(err)
	}
	if ec.Len() != 1 || ec.UsedKB() != 10 {
		t.Fatalf("reinsert duplicated entry: len=%d used=%v", ec.Len(), ec.UsedKB())
	}
	if !ec.Contains(1, 2) {
		t.Fatal("version not refreshed")
	}
	if ec.Contains(1, 1) {
		t.Fatal("old version still visible")
	}
}

// TestReinsertUpdatesMetadata pins the refresh-path fix: a re-insert
// must adopt the document's new size and update rate, adjust usedKB,
// run eviction when the document grew past the remaining capacity, and
// count as an insert — the old in-place refresh did none of these.
func TestReinsertUpdatesMetadata(t *testing.T) {
	ec := newCache(t, 30)
	var evicted []workload.DocID
	ec.SetEvictionHook(func(d workload.DocID) { evicted = append(evicted, d) })
	if err := ec.Insert(doc(1, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := ec.Insert(doc(2, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	// Doc 1 grew from 10KB to 25KB: the refresh must free its old copy and
	// evict doc 2 to make room.
	if err := ec.Insert(doc(1, 25, 0.5), 2, 5); err != nil {
		t.Fatal(err)
	}
	if ec.Len() != 1 || ec.UsedKB() != 25 {
		t.Fatalf("grown reinsert: len=%d used=%v, want 1/25", ec.Len(), ec.UsedKB())
	}
	if !ec.Contains(1, 2) {
		t.Fatal("version not refreshed")
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("eviction hook calls = %v, want [2] (replaced doc must not notify)", evicted)
	}
	st := ec.Stats()
	if st.Inserts != 3 {
		t.Fatalf("Inserts = %d, want 3 (re-insert counted)", st.Inserts)
	}
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// Shrinking releases space.
	if err := ec.Insert(doc(1, 5, 0.5), 3, 6); err != nil {
		t.Fatal(err)
	}
	if ec.UsedKB() != 5 {
		t.Fatalf("shrunk reinsert used=%v, want 5", ec.UsedKB())
	}
}

func TestInvalidate(t *testing.T) {
	ec := newCache(t, 100)
	if err := ec.Insert(doc(1, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if !ec.Invalidate(1) {
		t.Fatal("Invalidate missed cached doc")
	}
	if ec.Invalidate(1) {
		t.Fatal("Invalidate hit absent doc")
	}
	if ec.Len() != 0 {
		t.Fatal("doc survived invalidation")
	}
}

func TestEvictionHook(t *testing.T) {
	ec := newCache(t, 20)
	var evicted []workload.DocID
	ec.SetEvictionHook(func(d workload.DocID) { evicted = append(evicted, d) })
	if err := ec.Insert(doc(1, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := ec.Insert(doc(2, 10, 0), 1, 0); err != nil {
		t.Fatal(err)
	}
	// Make doc 2 hot so doc 1 is evicted.
	ec.Lookup(2, 1, 1)
	ec.Lookup(2, 1, 1)
	if err := ec.Insert(doc(3, 10, 0), 1, 2); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}
	// Invalidation also notifies.
	ec.Invalidate(2)
	if len(evicted) != 2 || evicted[1] != 2 {
		t.Fatalf("evicted = %v, want [1 2]", evicted)
	}
}

// TestCapacityInvariantProperty: under arbitrary insert/lookup sequences the
// cache never exceeds its capacity and Len matches the entry map.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := simrand.New(seed)
		ec, err := New(Config{CapacityKB: 50, MissPenaltyMS: 100})
		if err != nil {
			return false
		}
		now := 0.0
		for op := 0; op < 300; op++ {
			now += src.Float64()
			id := src.Intn(30)
			switch src.Intn(3) {
			case 0:
				size := src.Uniform(1, 20)
				_ = ec.Insert(doc(id, size, src.Float64()), int64(src.Intn(3)), now)
			case 1:
				ec.Lookup(workload.DocID(id), int64(src.Intn(3)), now)
			case 2:
				ec.Invalidate(workload.DocID(id))
			}
			if ec.UsedKB() > 50+1e-9 {
				return false
			}
			if ec.UsedKB() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyUtility.String() != "utility" || PolicyLRU.String() != "lru" {
		t.Fatal("Policy String mismatch")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown Policy String mismatch")
	}
}

func TestPolicyValidation(t *testing.T) {
	cfg := Config{CapacityKB: 10, MissPenaltyMS: 1, Policy: Policy(9)}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	ec, err := New(Config{CapacityKB: 30, MissPenaltyMS: 100, Policy: PolicyLRU})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := ec.Insert(doc(i, 10, 0), 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 and 3 so 2 is the LRU victim.
	ec.Lookup(1, 1, 10)
	ec.Lookup(3, 1, 11)
	if err := ec.Insert(doc(4, 10, 0), 1, 12); err != nil {
		t.Fatal(err)
	}
	if ec.Contains(2, 1) {
		t.Fatal("LRU kept the least recently used doc")
	}
	if !ec.Contains(1, 1) || !ec.Contains(3, 1) || !ec.Contains(4, 1) {
		t.Fatal("LRU evicted the wrong victim")
	}
}

// TestUtilityVsLRUKeepsExpensiveDoc: the utility policy retains a rarely
// used but tiny, never-updated doc over a big, frequently updated one; LRU
// only looks at recency.
func TestUtilityVsLRUDiffer(t *testing.T) {
	run := func(p Policy) *EdgeCache {
		ec, err := New(Config{CapacityKB: 30, MissPenaltyMS: 100, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		// small static doc (1) inserted early, never touched again.
		if err := ec.Insert(doc(1, 2, 0), 1, 0); err != nil {
			t.Fatal(err)
		}
		// big dynamic doc (2) touched recently.
		if err := ec.Insert(doc(2, 20, 2.0), 1, 1); err != nil {
			t.Fatal(err)
		}
		ec.Lookup(2, 1, 50)
		// Force one eviction.
		if err := ec.Insert(doc(3, 10, 0), 1, 51); err != nil {
			t.Fatal(err)
		}
		return ec
	}
	lru := run(PolicyLRU)
	if lru.Contains(1, 1) {
		t.Fatal("LRU should have evicted the old small doc")
	}
	util := run(PolicyUtility)
	if !util.Contains(1, 1) {
		t.Fatal("utility policy should keep the small static doc")
	}
	if util.Contains(2, 1) {
		t.Fatal("utility policy should evict the big dynamic doc")
	}
}

// TestEvictVictimOrderIndependent pins the determinism contract evictOne's
// scan relies on: with tied utility scores, the (score, doc) tie-break
// picks the same victim no matter which order the entries were inserted in
// — and therefore no matter where removals have moved entries in the dense
// store.
func TestEvictVictimOrderIndependent(t *testing.T) {
	for _, order := range [][]int{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {3, 1, 2}} {
		ec := newCache(t, 30)
		for _, i := range order {
			if err := ec.Insert(doc(i, 10, 0), 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		var evicted []workload.DocID
		ec.SetEvictionHook(func(d workload.DocID) { evicted = append(evicted, d) })
		if err := ec.Insert(doc(4, 10, 0), 1, 1); err != nil {
			t.Fatal(err)
		}
		if len(evicted) != 1 || evicted[0] != 1 {
			t.Fatalf("insertion order %v evicted %v, want [1]", order, evicted)
		}
	}
}

// TestInsertRejectsDocIDOutside32Bit pins the store's 32-bit document
// keys: Insert refuses an ID it could not represent instead of aliasing it
// onto another document, and lookups of such an ID miss.
func TestInsertRejectsDocIDOutside32Bit(t *testing.T) {
	ec := newCache(t, 100)
	for _, id := range []int{-1, math.MaxInt32 + 1, math.MinInt32} {
		if err := ec.Insert(doc(id, 10, 0), 1, 0); err == nil {
			t.Fatalf("Insert(doc %d) succeeded, want an error", id)
		}
		if ec.Contains(workload.DocID(id), 1) || ec.Lookup(workload.DocID(id), 1, 0) || ec.Invalidate(workload.DocID(id)) {
			t.Fatalf("doc %d reported as cached", id)
		}
	}
	if ec.Len() != 0 || ec.UsedKB() != 0 || ec.Stats().Inserts != 0 {
		t.Fatalf("rejected inserts changed the cache: len=%d used=%v stats=%+v", ec.Len(), ec.UsedKB(), ec.Stats())
	}
	if err := ec.Insert(doc(math.MaxInt32, 10, 0), 1, 0); err != nil {
		t.Fatalf("Insert(doc MaxInt32): %v", err)
	}
	if !ec.Contains(math.MaxInt32, 1) || ec.Contains(-1, 1) {
		t.Fatal("doc MaxInt32 not stored under its own ID")
	}
}

// TestInsertRejectsBadSizeAndRate pins Insert's input checks: a NaN size
// fails every comparison, so without its own check it would make usedKB
// NaN and switch capacity enforcement off, and a NaN or negative update
// rate would give a NaN or negative utility. Each bad document leaves
// the cache untouched, and capacity still holds afterwards.
func TestInsertRejectsBadSizeAndRate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sizeKB, rate float64
		want         string
	}{
		{"zero size", 0, 0, "non-positive size 0"},
		{"negative size", -1, 0, "non-positive size -1"},
		{"NaN size", math.NaN(), 0, "non-positive size NaN"},
		{"-Inf size", math.Inf(-1), 0, "non-positive size -Inf"},
		{"+Inf size", math.Inf(1), 0, "larger than capacity"},
		{"negative rate", 10, -2, "negative update rate -2"},
		{"NaN rate", 10, math.NaN(), "negative update rate NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ec := newCache(t, 100)
			err := ec.Insert(doc(1, tc.sizeKB, tc.rate), 1, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Insert(size %v, rate %v) = %v, want an error containing %q", tc.sizeKB, tc.rate, err, tc.want)
			}
			if ec.Len() != 0 || ec.UsedKB() != 0 || ec.Stats().Inserts != 0 {
				t.Fatalf("rejected insert changed the cache: len=%d used=%v stats=%+v", ec.Len(), ec.UsedKB(), ec.Stats())
			}
			for id := 2; id < 50; id++ {
				if err := ec.Insert(doc(id, 10, 0), 1, float64(id)); err != nil {
					t.Fatal(err)
				}
			}
			if ec.Len() != 10 || ec.UsedKB() != 100 {
				t.Fatalf("after 48 inserts of 10 KB into 100 KB: len=%d used=%v, want 10 and 100", ec.Len(), ec.UsedKB())
			}
		})
	}
}
