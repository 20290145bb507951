package cache

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"edgecachegroups/internal/workload"
)

// FuzzEdgeCacheMatchesReference replays a byte-encoded sequence of
// Insert/Lookup/Contains/Invalidate calls on an EdgeCache and on refCache,
// the map-of-pointers store EdgeCache used before its entries became a
// dense slice. Every return value, the Stats, Len, the bits of UsedKB and
// Utility, and the eviction-hook sequence must agree after every call, under
// both replacement policies.
//
// Input layout: byte 0 picks the policy (bit 0) and the capacity; byte 1
// the miss penalty; then each call takes five bytes: kind, document (an
// index into fuzzDocs), two argument bytes, and a time step (zero steps
// give equal-time ties).
func FuzzEdgeCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 100, 0, 1, 40, 0, 1, 0, 2, 40, 0, 1, 0, 3, 40, 0, 1})
	f.Add([]byte{1, 100, 0, 1, 40, 0, 1, 1, 1, 0, 0, 1, 0, 2, 40, 0, 1, 0, 3, 40, 0, 1})
	// Backward-shift deletion at 16 slots (TestSlotTableBackwardShift has
	// the layouts): a chain wrapping from slot 15 to slots 0-2, a chain in
	// slots 13-15 emptied from its head, and a chain in slots 5-8 whose
	// slot-7 entry is at its home. The last seed fills the table past two
	// growths, then removes from the wrapped chain.
	insert := func(i byte) []byte { return []byte{0, i, 0, 4, 1} }
	lookup := func(i byte) []byte { return []byte{1, i, 0, 0, 1} }
	invalidate := func(i byte) []byte { return []byte{3, i, 0, 0, 1} }
	seed := func(calls ...[]byte) []byte {
		return slices.Concat(append([][]byte{{200, 100}}, calls...)...)
	}
	f.Add(seed(insert(2), insert(3), insert(4), insert(6), invalidate(2), lookup(3), lookup(4), lookup(6), invalidate(3), lookup(4), lookup(6)))
	f.Add(seed(insert(8), insert(9), insert(10), invalidate(8), lookup(9), lookup(10), insert(8), invalidate(9), lookup(10)))
	f.Add(seed(insert(11), insert(12), insert(14), insert(13), invalidate(11), lookup(12), lookup(14), lookup(13), invalidate(14), lookup(13)))
	var fill [][]byte
	for i := range byte(len(fuzzDocs)) {
		fill = append(fill, insert(i))
	}
	f.Add(seed(append(fill, invalidate(2), lookup(3), invalidate(0), lookup(6), invalidate(1), insert(2))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			CapacityKB:    20 + float64(data[0]>>1),
			MissPenaltyMS: 1 + float64(data[1]),
			Policy:        PolicyUtility,
		}
		if data[0]&1 == 1 {
			cfg.Policy = PolicyLRU
		}
		ec, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gotEvicted, wantEvicted []workload.DocID
		ec.SetEvictionHook(func(d workload.DocID) { gotEvicted = append(gotEvicted, d) })
		ref.SetEvictionHook(func(d workload.DocID) { wantEvicted = append(wantEvicted, d) })

		now := 0.0
		for ops := data[2:]; len(ops) >= 5; ops = ops[5:] {
			d := fuzzDocs[int(ops[1])%len(fuzzDocs)]
			version := int64(ops[2] % 3)
			now += float64(ops[4]%16) / 4
			var got, want string
			switch ops[0] % 4 {
			case 0:
				doc := workload.Document{
					ID:               d,
					SizeKB:           0.25 + float64(ops[3])/4,
					UpdateRatePerSec: float64(ops[2]>>2) / 8,
				}
				got = fmt.Sprint(ec.Insert(doc, version, now))
				want = fmt.Sprint(ref.Insert(doc, version, now))
			case 1:
				got = fmt.Sprint(ec.Lookup(d, version, now))
				want = fmt.Sprint(ref.Lookup(d, version, now))
			case 2:
				got = fmt.Sprint(ec.Contains(d, version))
				want = fmt.Sprint(ref.Contains(d, version))
			case 3:
				got = fmt.Sprint(ec.Invalidate(d))
				want = fmt.Sprint(ref.Invalidate(d))
			}
			if got != want {
				t.Fatalf("call %v at t=%v returned %s, reference %s", ops[:5], now, got, want)
			}
			if ec.Stats() != ref.Stats() {
				t.Fatalf("after call %v: stats %+v, reference %+v", ops[:5], ec.Stats(), ref.Stats())
			}
			if ec.Len() != ref.Len() || math.Float64bits(ec.UsedKB()) != math.Float64bits(ref.UsedKB()) {
				t.Fatalf("after call %v: len %d used %v, reference len %d used %v",
					ops[:5], ec.Len(), ec.UsedKB(), ref.Len(), ref.UsedKB())
			}
			if !slices.Equal(gotEvicted, wantEvicted) {
				t.Fatalf("after call %v: evictions %v, reference %v", ops[:5], gotEvicted, wantEvicted)
			}
			checkSlots(t, ec)
			for _, doc := range fuzzDocs {
				u, ok := ec.Utility(doc, now)
				ru, rok := ref.Utility(doc, now)
				if ok != rok || math.Float64bits(u) != math.Float64bits(ru) {
					t.Fatalf("after call %v: Utility(%d) = %v %v, reference %v %v", ops[:5], doc, u, ok, ru, rok)
				}
			}
		}
	})
}

// fuzzDocs maps FuzzEdgeCacheMatchesReference's document byte to an ID.
// Beside the ends of the admitted range it holds IDs that share a home slot
// at table sizes 16 and 32 (TestFuzzDocHomes pins the homes), so short call
// sequences build probe chains and wrap around the table's end, and enough
// fillers that the table grows from 16 slots to 32 and then 64.
var fuzzDocs = []workload.DocID{
	0, math.MaxInt32,
	21, 55, 76, 110, // home 15 at 16 slots, 31 at 32: chains wrap
	34, 68, // home 0 at both sizes: a chain continues after the wrap
	24, 79, 113, // home 13 at 16 slots, 26 at 32
	7, 41, 62, // home 5 at 16 slots, 10 at 32
	25, // home 7 at 16 slots, 14 at 32
	1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 1 << 30,
}

// The reference store: EdgeCache as it was before the dense-slice store,
// with its identifiers renamed so both can live in one package.

// refEntry is one cached document copy.
type refEntry struct {
	doc        workload.DocID
	sizeKB     float64
	updateRate float64
	version    int64
	insertedAt float64
	accesses   int
	lastAccess float64
}

// utility computes the Cache Clouds utility of e at time now.
func (e *refEntry) utility(now, minAge, missPenalty float64) float64 {
	age := now - e.insertedAt
	if age < minAge {
		age = minAge
	}
	accessRate := float64(e.accesses+1) / age
	return (accessRate * missPenalty) / (e.sizeKB * (1 + e.updateRate))
}

// refCache is a single cache node. It is not safe for concurrent use; the
// simulator's event loop serializes access.
type refCache struct {
	cfg     Config
	entries map[workload.DocID]*refEntry
	usedKB  float64
	stats   Stats

	// onEvict, when set, is invoked for every entry leaving the cache
	// (eviction or stale drop) so a group directory can stay consistent.
	onEvict func(workload.DocID)
}

// New builds an empty edge cache.
func newRefCache(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinAgeSec == 0 {
		cfg.MinAgeSec = 1
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyUtility
	}
	return &refCache{
		cfg:     cfg,
		entries: make(map[workload.DocID]*refEntry),
	}, nil
}

// SetEvictionHook registers fn to be called whenever a document leaves the
// cache — a capacity eviction, a stale copy dropped during Lookup, or an
// Invalidate. Re-Inserting a document the cache already holds replaces the
// old copy silently, without firing the hook.
func (ec *refCache) SetEvictionHook(fn func(workload.DocID)) { ec.onEvict = fn }

// Stats returns a copy of the counters.
func (ec *refCache) Stats() Stats { return ec.stats }

// UsedKB returns the occupied storage.
func (ec *refCache) UsedKB() float64 { return ec.usedKB }

// Len returns the number of cached documents.
func (ec *refCache) Len() int { return len(ec.entries) }

// Contains reports whether doc is cached at exactly version (fresh), with
// no side effects on statistics or entry state. Used for cooperative
// lookups by group peers.
func (ec *refCache) Contains(doc workload.DocID, version int64) bool {
	e, ok := ec.entries[doc]
	return ok && e.version == version
}

// Lookup performs a client-driven lookup at time nowSec against the
// current document version. It returns true on a fresh hit. Stale copies
// are dropped and counted as consistency misses.
func (ec *refCache) Lookup(doc workload.DocID, version int64, nowSec float64) bool {
	e, ok := ec.entries[doc]
	if !ok {
		ec.stats.Misses++
		return false
	}
	if e.version != version {
		ec.removeEntry(e, true)
		ec.stats.StaleDrops++
		ec.stats.Misses++
		return false
	}
	e.accesses++
	e.lastAccess = nowSec
	ec.stats.Hits++
	return true
}

// Insert admits a document copy fetched at time nowSec with the given
// version, evicting low-utility entries as needed. A document larger than
// the entire cache is rejected with ErrTooLarge. Inserting a document that
// is already cached refreshes its version and metadata.
func (ec *refCache) Insert(d workload.Document, version int64, nowSec float64) error {
	if d.SizeKB <= 0 {
		return fmt.Errorf("cache: document %d has non-positive size %v", d.ID, d.SizeKB)
	}
	if d.SizeKB > ec.cfg.CapacityKB {
		return fmt.Errorf("cache: document %d (%.1fKB > %.1fKB): %w", d.ID, d.SizeKB, ec.cfg.CapacityKB, ErrTooLarge)
	}
	if old, ok := ec.entries[d.ID]; ok {
		// Re-insert of a cached document: remove the old copy (without the
		// eviction hook — the owner still holds the document) and fall
		// through to the normal insert path, so the new size and update
		// rate are recorded, usedKB stays true to the stored bytes, a grown
		// document triggers eviction like any other admission, and the
		// re-insert is counted. The old code refreshed version/time in
		// place and kept stale sizeKB/updateRate forever.
		ec.removeEntry(old, false)
	}
	for ec.usedKB+d.SizeKB > ec.cfg.CapacityKB {
		if !ec.evictOne(nowSec) {
			return fmt.Errorf("cache: cannot make room for document %d", d.ID)
		}
	}
	ec.entries[d.ID] = &refEntry{
		doc:        d.ID,
		sizeKB:     d.SizeKB,
		updateRate: d.UpdateRatePerSec,
		version:    version,
		insertedAt: nowSec,
		lastAccess: nowSec,
	}
	ec.usedKB += d.SizeKB
	ec.stats.Inserts++
	return nil
}

// Invalidate drops doc if cached (push-based consistency). It reports
// whether a copy was present.
func (ec *refCache) Invalidate(doc workload.DocID) bool {
	e, ok := ec.entries[doc]
	if !ok {
		return false
	}
	ec.removeEntry(e, true)
	return true
}

// evictOne removes the replacement-policy victim. It returns false when
// the cache is already empty.
func (ec *refCache) evictOne(nowSec float64) bool {
	var victim *refEntry
	var victimScore float64
	// Argmin with a total-order tie-break on (score, doc): the victim is
	// independent of the map's iteration order.
	for _, e := range ec.entries {
		var score float64
		if ec.cfg.Policy == PolicyLRU {
			score = e.lastAccess
		} else {
			score = e.utility(nowSec, ec.cfg.MinAgeSec, ec.cfg.MissPenaltyMS)
		}
		if victim == nil || score < victimScore || (score == victimScore && e.doc < victim.doc) {
			victim, victimScore = e, score
		}
	}
	if victim == nil {
		return false
	}
	ec.removeEntry(victim, true)
	ec.stats.Evictions++
	return true
}

func (ec *refCache) removeEntry(e *refEntry, notify bool) {
	delete(ec.entries, e.doc)
	ec.usedKB -= e.sizeKB
	if ec.usedKB < 0 {
		ec.usedKB = 0
	}
	if notify && ec.onEvict != nil {
		ec.onEvict(e.doc)
	}
}

// Utility exposes the current utility of a cached document for tests and
// diagnostics. The boolean result is false when the document is not
// cached.
func (ec *refCache) Utility(doc workload.DocID, nowSec float64) (float64, bool) {
	e, ok := ec.entries[doc]
	if !ok {
		return 0, false
	}
	return e.utility(nowSec, ec.cfg.MinAgeSec, ec.cfg.MissPenaltyMS), true
}
