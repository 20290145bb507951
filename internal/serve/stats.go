package serve

import (
	"math"
	"sync"
	"sync/atomic"
)

// CacheStat is one per-cache ingest record: the cache's freshest measured
// RTT vector to the plan's landmarks, plus an optional request-count
// delta for load accounting. Reports are idempotent per (cache, round):
// within one aggregation window the latest RTT vector wins and request
// counts accumulate.
type CacheStat struct {
	// Cache is the cache index in [0, NumCaches).
	Cache int `json:"cache"`
	// RTTMS is the cache's measured RTT to each plan landmark, in
	// milliseconds, in landmark order (the plan's feature-vector space).
	RTTMS []float64 `json:"rttMS"`
	// Requests is the number of client requests the cache served since its
	// previous report (optional).
	Requests int64 `json:"requests,omitempty"`
}

// ingestBuffer is one side of the double buffer. The sealed flag closes
// the race between a writer that loaded the pointer just before a swap
// and the drainer: the drainer seals under the buffer lock, so any writer
// that acquires the lock afterwards sees sealed and retries against the
// fresh buffer instead of writing into a drained one.
type ingestBuffer struct {
	mu      sync.Mutex
	sealed  bool
	latest  map[int]CacheStat
	reports int64
}

func newIngestBuffer() *ingestBuffer {
	return &ingestBuffer{latest: make(map[int]CacheStat)}
}

// StatsBuffer is the daemon's double-buffered stat sink, after the SSD
// exemplar: writers merge reports into the active buffer under a short
// per-buffer lock, and the aggregation tick publishes a fresh buffer with
// a single atomic pointer swap — the write path never blocks on
// aggregation, and the swap never blocks on writers.
type StatsBuffer struct {
	active atomic.Pointer[ingestBuffer]
	// total counts reports accepted across all windows (diagnostics).
	total atomic.Int64
}

// NewStatsBuffer returns an empty double-buffered sink.
func NewStatsBuffer() *StatsBuffer {
	b := &StatsBuffer{}
	b.active.Store(newIngestBuffer())
	return b
}

// Record merges one report into the active window: the report's RTT
// vector replaces the cache's previous one (freshest measurement wins)
// and its request count accumulates.
func (b *StatsBuffer) Record(s CacheStat) {
	for {
		buf := b.active.Load()
		buf.mu.Lock()
		if buf.sealed {
			buf.mu.Unlock()
			continue // lost the swap race: retry against the fresh buffer
		}
		if prev, ok := buf.latest[s.Cache]; ok {
			s.Requests = addRequests(prev.Requests, s.Requests)
		}
		buf.latest[s.Cache] = s //ecglint:allow cowmutate double-buffer write path: mutation happens under buf.mu with the sealed check, never on a retired buffer (covers reports++ below)
		buf.reports++
		buf.mu.Unlock()
		b.total.Add(1)
		return
	}
}

// addRequests sums two non-negative request counts, saturating at
// math.MaxInt64 instead of wrapping negative.
func addRequests(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Swap atomically installs a fresh active buffer and drains the previous
// window, returning its per-cache stats (keyed by cache index) and the
// number of reports it merged. The returned map is exclusively owned by
// the caller.
func (b *StatsBuffer) Swap() (map[int]CacheStat, int64) {
	old := b.active.Swap(newIngestBuffer())
	old.mu.Lock()
	old.sealed = true //ecglint:allow cowmutate sealing the swapped-out buffer under its mu is the handoff protocol; writers observe sealed and retry
	stats, n := old.latest, old.reports
	//ecglint:allow cowmutate the sealed buffer is exclusively owned here; clearing latest transfers the map to the caller
	old.latest = nil
	old.mu.Unlock()
	return stats, n
}

// Total returns the number of reports accepted since construction.
func (b *StatsBuffer) Total() int64 { return b.total.Load() }
