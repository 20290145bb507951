package serve

import "math"

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

// addRequests sums two non-negative request counts, saturating at
// math.MaxInt64 instead of wrapping negative.
func addRequests(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
