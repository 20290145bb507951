package netsim

import (
	"math/bits"

	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// holderDir records which caches hold a fresh copy of each document: the
// group lookup machinery of Cache Clouds, answered from one table instead
// of probing every peer's store.
//
// Caches are numbered group by group, each group in its members order, so
// group g owns the bits [start[g], start[g+1]) and a group's holders come
// out of an ascending bit walk in that group's members order. Document d
// owns the row bits[d*words : (d+1)*words], one bit per indexed cache:
// ⌈M/64⌉ words per document for M indexed caches. Each shard of a run
// keeps its own directory, which indexes only the members of its own
// groups; every other group is empty in it.
//
// The shard keeps the table exact: a fetch completion sets the bit when
// its insert succeeds and clears it when the insert fails, the cache
// eviction hook clears it (capacity eviction, stale drop, invalidation),
// and a version bump clears the whole row, since every copy held at that
// moment has just gone stale.
type holderDir struct {
	words int                   // uint64 words per document row
	bits  []uint64              // document rows, one bit per cache
	bit   []int32               // directory bit of each cache
	cache []topology.CacheIndex // cache of each directory bit
	start []int32               // group g owns bits [start[g], start[g+1])
}

// newHolderDir builds an empty directory over numDocs documents for the
// members of groups, caches numbered below numCaches.
func newHolderDir(groups [][]topology.CacheIndex, numCaches, numDocs int) holderDir {
	members := 0
	for _, g := range groups {
		members += len(g)
	}
	h := holderDir{
		words: (members + 63) / 64,
		bit:   make([]int32, numCaches),
		cache: make([]topology.CacheIndex, 0, members),
		start: make([]int32, 0, len(groups)+1),
	}
	h.bits = make([]uint64, numDocs*h.words)
	for _, members := range groups {
		h.start = append(h.start, int32(len(h.cache)))
		for _, c := range members {
			h.bit[int(c)] = int32(len(h.cache))
			h.cache = append(h.cache, c)
		}
	}
	h.start = append(h.start, int32(len(h.cache)))
	return h
}

// row returns the bits of doc.
func (h *holderDir) row(doc workload.DocID) []uint64 {
	off := int(doc) * h.words
	return h.bits[off : off+h.words]
}

// set records that cache c holds a fresh copy of doc.
func (h *holderDir) set(doc workload.DocID, c topology.CacheIndex) {
	b := h.bit[int(c)]
	h.bits[int(doc)*h.words+int(b>>6)] |= 1 << (b & 63)
}

// clear records that cache c no longer holds a fresh copy of doc.
func (h *holderDir) clear(doc workload.DocID, c topology.CacheIndex) {
	b := h.bit[int(c)]
	h.bits[int(doc)*h.words+int(b>>6)] &^= 1 << (b & 63)
}

// appendGroupHolders appends to dst the holders of doc in group g other
// than skip, in the group's members order.
func (h *holderDir) appendGroupHolders(dst []topology.CacheIndex, doc workload.DocID, g int, skip topology.CacheIndex) []topology.CacheIndex {
	lo, hi := int(h.start[g]), int(h.start[g+1])
	if lo == hi {
		return dst
	}
	row := h.row(doc)
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		x := row[w]
		if w == first {
			x &= ^uint64(0) << (lo & 63)
		}
		if w == last {
			x &= ^uint64(0) >> (63 - ((hi - 1) & 63))
		}
		for ; x != 0; x &= x - 1 {
			if c := h.cache[w<<6|bits.TrailingZeros64(x)]; c != skip {
				dst = append(dst, c)
			}
		}
	}
	return dst
}
