// Package cache implements an edge cache node with the utility-based
// document placement and replacement scheme of the Cache Clouds system
// (Ramaswamy, Liu & Iyengar, ICDCS 2005 — reference [7] of the paper).
//
// The utility of a cached document combines how often it is accessed, how
// expensive a miss is for this cache, how large the document is, and how
// frequently the origin updates it:
//
//	utility = (accessRate × missPenalty) / (sizeKB × (1 + updateRate))
//
// On capacity pressure the lowest-utility entries are evicted first. Cached
// copies carry the document version observed at fetch time; a lookup with a
// newer current version is a consistency miss (the origin has updated the
// document) and drops the stale copy.
package cache

import (
	"errors"
	"fmt"
	"math"

	"edgecachegroups/internal/workload"
)

// Policy selects the replacement policy.
type Policy int

// Replacement policies.
const (
	// PolicyUtility is the Cache Clouds utility-based replacement scheme
	// (the paper's caches use this).
	PolicyUtility Policy = iota + 1
	// PolicyLRU is the least-recently-used baseline the Cache Clouds paper
	// compares against.
	PolicyLRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyUtility:
		return "utility"
	case PolicyLRU:
		return "lru"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures one edge cache node.
type Config struct {
	// CapacityKB is the storage budget.
	CapacityKB float64
	// MissPenaltyMS is the cost of re-fetching from the origin (typically
	// ~2× the cache's RTT to the origin server). It weights utility so
	// far-away caches hold on to documents harder.
	MissPenaltyMS float64
	// MinAgeSec guards the access-rate estimate of very young entries
	// (age is clamped below to this value). Zero means the default (1s).
	MinAgeSec float64
	// Policy selects the replacement policy; zero means PolicyUtility.
	Policy Policy
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	// NaN passes every ordered comparison below (a NaN capacity would
	// never trigger eviction), so non-finite values are rejected first.
	for _, v := range [...]float64{c.CapacityKB, c.MissPenaltyMS, c.MinAgeSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cache: non-finite config value %v", v)
		}
	}
	if c.CapacityKB <= 0 {
		return fmt.Errorf("cache: CapacityKB must be > 0, got %v", c.CapacityKB)
	}
	if c.MissPenaltyMS <= 0 {
		return fmt.Errorf("cache: MissPenaltyMS must be > 0, got %v", c.MissPenaltyMS)
	}
	if c.MinAgeSec < 0 {
		return fmt.Errorf("cache: MinAgeSec must be >= 0, got %v", c.MinAgeSec)
	}
	switch c.Policy {
	case 0, PolicyUtility, PolicyLRU:
	default:
		return fmt.Errorf("cache: unknown policy %v", c.Policy)
	}
	return nil
}

// entry is one cached document copy. The store keeps entries by value in a
// dense slice, so the field widths set its footprint: doc and accesses are
// 32-bit to keep an entry at 48 bytes, and accesses saturates at
// math.MaxInt32 rather than wrap.
type entry struct {
	sizeKB     float64
	updateRate float64
	version    int64
	insertedAt float64
	lastAccess float64
	doc        int32
	accesses   int32
}

// utility computes the Cache Clouds utility of e at time now.
func (e *entry) utility(now, minAge, missPenalty float64) float64 {
	age := now - e.insertedAt
	if age < minAge {
		age = minAge
	}
	accessRate := float64(e.accesses+1) / age
	return (accessRate * missPenalty) / (e.sizeKB * (1 + e.updateRate))
}

// Stats counts cache-local events.
type Stats struct {
	// Hits is the number of fresh local hits.
	Hits int64
	// Misses is the number of lookups that found nothing.
	Misses int64
	// StaleDrops is the number of lookups that found a stale copy
	// (consistency miss).
	StaleDrops int64
	// Evictions is the number of entries displaced by capacity pressure.
	Evictions int64
	// Inserts is the number of admitted documents.
	Inserts int64
}

// EdgeCache is a single cache node. It is not safe for concurrent use; the
// simulator's event loop serializes access.
type EdgeCache struct {
	cfg Config
	// entries holds the cached copies densely, in no particular order.
	// Removal moves the last entry into the freed index, so the store never
	// holds gaps.
	entries []entry
	// slots is an open-addressed table from document to entry: each slot
	// holds an index into entries plus one, or 0 when empty. Its length is
	// a power of two at least twice len(entries); a document's home slot is
	// the top bits of a multiplicative hash (shift drops the rest), and
	// collisions probe linearly. The keys are the entries' doc fields, so
	// the table stores no second copy of them, and deletion shifts the rest
	// of a probe chain back instead of leaving tombstones.
	slots  []int32
	shift  uint32
	usedKB float64
	stats  Stats

	// onEvict, when set, is invoked for every entry leaving the cache
	// (eviction, stale drop or invalidation) so a holder directory can
	// stay consistent.
	onEvict func(workload.DocID)
}

// New builds an empty edge cache.
func New(cfg Config) (*EdgeCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinAgeSec == 0 {
		cfg.MinAgeSec = 1
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyUtility
	}
	return &EdgeCache{
		cfg:   cfg,
		slots: make([]int32, minSlots),
		shift: 32 - minSlotBits,
	}, nil
}

// The slot table starts at 1<<minSlotBits slots and doubles whenever an
// insert would take it past half full.
const (
	minSlotBits = 4
	minSlots    = 1 << minSlotBits
)

// home returns doc's home slot: the top bits of its Fibonacci hash.
func (ec *EdgeCache) home(doc int32) int {
	return int((uint32(doc) * 0x9e3779b9) >> ec.shift)
}

// probe returns the slot that holds doc or, when doc is not cached, the
// empty slot that ends its probe chain.
func (ec *EdgeCache) probe(doc int32) int {
	mask := len(ec.slots) - 1
	s := ec.home(doc)
	for {
		v := ec.slots[s]
		if v == 0 || ec.entries[v-1].doc == doc {
			return s
		}
		s = (s + 1) & mask
	}
}

// find returns the index in entries of the copy of doc, or -1. A DocID
// outside the 32-bit range Insert admits is never cached.
func (ec *EdgeCache) find(doc workload.DocID) int {
	if doc < 0 || doc > math.MaxInt32 {
		return -1
	}
	return int(ec.slots[ec.probe(int32(doc))]) - 1
}

// grow doubles the slot table and re-enters every entry, in entries order.
func (ec *EdgeCache) grow() {
	ec.slots = make([]int32, 2*len(ec.slots))
	ec.shift--
	for i := range ec.entries {
		ec.slots[ec.probe(ec.entries[i].doc)] = int32(i + 1)
	}
}

// clearSlot empties slot hole by backward-shift deletion: each later entry
// of the probe chain whose home does not lie cyclically in (hole, j] moves
// back into the hole, which then moves to where it was, until the chain
// ends at an empty slot. Every remaining entry stays reachable from its
// home without a tombstone.
func (ec *EdgeCache) clearSlot(hole int) {
	mask := len(ec.slots) - 1
	for j := (hole + 1) & mask; ec.slots[j] != 0; j = (j + 1) & mask {
		v := ec.slots[j]
		if (j-ec.home(ec.entries[v-1].doc))&mask >= (j-hole)&mask {
			ec.slots[hole] = v
			hole = j
		}
	}
	ec.slots[hole] = 0
}

// SetEvictionHook registers fn to be called whenever a document leaves the
// cache — a capacity eviction, a stale copy dropped during Lookup, or an
// Invalidate. Re-Inserting a document the cache already holds replaces the
// old copy silently, without firing the hook, and a re-Insert that fails
// has dropped the old copy all the same. An owner that indexes what the
// cache holds, like the simulator's holder directory, therefore follows
// Insert's result as well as this hook.
func (ec *EdgeCache) SetEvictionHook(fn func(workload.DocID)) { ec.onEvict = fn }

// Stats returns a copy of the counters.
func (ec *EdgeCache) Stats() Stats { return ec.stats }

// UsedKB returns the occupied storage.
func (ec *EdgeCache) UsedKB() float64 { return ec.usedKB }

// Len returns the number of cached documents.
func (ec *EdgeCache) Len() int { return len(ec.entries) }

// Contains reports whether doc is cached at exactly version (fresh), with
// no side effects on statistics or entry state. The simulator answers
// cooperative lookups from its holder directory; its tests check that
// directory against Contains.
func (ec *EdgeCache) Contains(doc workload.DocID, version int64) bool {
	i := ec.find(doc)
	return i >= 0 && ec.entries[i].version == version
}

// Lookup performs a client-driven lookup at time nowSec against the
// current document version. It returns true on a fresh hit. Stale copies
// are dropped and counted as consistency misses.
func (ec *EdgeCache) Lookup(doc workload.DocID, version int64, nowSec float64) bool {
	i := ec.find(doc)
	if i < 0 {
		ec.stats.Misses++
		return false
	}
	e := &ec.entries[i]
	if e.version != version {
		ec.removeEntry(i, true)
		ec.stats.StaleDrops++
		ec.stats.Misses++
		return false
	}
	if e.accesses < math.MaxInt32 {
		e.accesses++
	}
	e.lastAccess = nowSec
	ec.stats.Hits++
	return true
}

// ErrTooLarge is returned when a document exceeds the cache capacity
// outright.
var ErrTooLarge = errors.New("cache: document larger than capacity")

// Insert admits a document copy fetched at time nowSec with the given
// version, evicting low-utility entries as needed. A document larger than
// the entire cache is rejected with ErrTooLarge; a DocID outside
// [0, math.MaxInt32], a size that is not positive (NaN included) and an
// update rate that is negative or NaN are rejected too. Inserting a
// document that is already cached refreshes its version and metadata.
func (ec *EdgeCache) Insert(d workload.Document, version int64, nowSec float64) error {
	if d.ID < 0 || d.ID > math.MaxInt32 {
		return fmt.Errorf("cache: document ID %d outside [0, %d]", d.ID, math.MaxInt32)
	}
	// The negated comparisons also reject NaN, which fails every
	// comparison: a NaN size would make usedKB NaN and switch the capacity
	// check off for good, and a NaN or negative rate corrupts utility.
	if !(d.SizeKB > 0) {
		return fmt.Errorf("cache: document %d has non-positive size %v", d.ID, d.SizeKB)
	}
	if d.SizeKB > ec.cfg.CapacityKB {
		return fmt.Errorf("cache: document %d (%.1fKB > %.1fKB): %w", d.ID, d.SizeKB, ec.cfg.CapacityKB, ErrTooLarge)
	}
	if !(d.UpdateRatePerSec >= 0) {
		return fmt.Errorf("cache: document %d has negative update rate %v", d.ID, d.UpdateRatePerSec)
	}
	if old := ec.find(d.ID); old >= 0 {
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
	if len(ec.entries) == cap(ec.entries) {
		// Grow by about 1.25x rather than append's doubling: the store is
		// kept for the cache's lifetime, so slack is retained heap.
		grown := make([]entry, len(ec.entries), len(ec.entries)+len(ec.entries)/4+8)
		copy(grown, ec.entries)
		ec.entries = grown
	}
	if 2*(len(ec.entries)+1) > len(ec.slots) {
		ec.grow()
	}
	ec.slots[ec.probe(int32(d.ID))] = int32(len(ec.entries) + 1)
	ec.entries = append(ec.entries, entry{
		doc:        int32(d.ID),
		sizeKB:     d.SizeKB,
		updateRate: d.UpdateRatePerSec,
		version:    version,
		insertedAt: nowSec,
		lastAccess: nowSec,
	})
	ec.usedKB += d.SizeKB
	ec.stats.Inserts++
	return nil
}

// Invalidate drops doc if cached (push-based consistency). It reports
// whether a copy was present.
func (ec *EdgeCache) Invalidate(doc workload.DocID) bool {
	i := ec.find(doc)
	if i < 0 {
		return false
	}
	ec.removeEntry(i, true)
	return true
}

// evictOne removes the replacement-policy victim: the entry with the least
// (score, doc) pair. The order is total, so the victim does not depend on
// where removals have moved entries in the slice. It returns false when the
// cache is already empty.
func (ec *EdgeCache) evictOne(nowSec float64) bool {
	victim := -1
	var victimScore float64
	var victimDoc int32
	for i := range ec.entries {
		e := &ec.entries[i]
		var score float64
		if ec.cfg.Policy == PolicyLRU {
			score = e.lastAccess
		} else {
			score = e.utility(nowSec, ec.cfg.MinAgeSec, ec.cfg.MissPenaltyMS)
		}
		if victim < 0 || score < victimScore || (score == victimScore && e.doc < victimDoc) {
			victim, victimScore, victimDoc = i, score, e.doc
		}
	}
	if victim < 0 {
		return false
	}
	ec.removeEntry(victim, true)
	ec.stats.Evictions++
	return true
}

// removeEntry drops entries[i] by moving the last entry into its index.
func (ec *EdgeCache) removeEntry(i int, notify bool) {
	doc, sizeKB := ec.entries[i].doc, ec.entries[i].sizeKB
	ec.clearSlot(ec.probe(doc))
	last := len(ec.entries) - 1
	if i != last {
		ec.entries[i] = ec.entries[last]
		ec.slots[ec.probe(ec.entries[i].doc)] = int32(i + 1)
	}
	ec.entries = ec.entries[:last]
	ec.usedKB -= sizeKB
	if ec.usedKB < 0 {
		ec.usedKB = 0
	}
	if notify && ec.onEvict != nil {
		ec.onEvict(workload.DocID(doc))
	}
}

// Utility exposes the current utility of a cached document for tests and
// diagnostics. The boolean result is false when the document is not
// cached.
func (ec *EdgeCache) Utility(doc workload.DocID, nowSec float64) (float64, bool) {
	i := ec.find(doc)
	if i < 0 {
		return 0, false
	}
	return ec.entries[i].utility(nowSec, ec.cfg.MinAgeSec, ec.cfg.MissPenaltyMS), true
}
