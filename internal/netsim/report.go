package netsim

import (
	"fmt"
	"math"

	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
	"edgecachegroups/internal/workload"
)

// outcome classifies how a request was served.
type outcome uint8

const (
	outcomeLocal outcome = iota + 1
	outcomeGroup
	outcomeOrigin
	outcomeFailover
)

// LatencyTally is a count and an exact running sum of request latencies:
// the aggregate a Report keeps per cache and per group. Only
// Report.Overall keeps the samples themselves, for percentiles.
type LatencyTally struct {
	// Requests is the number of recorded requests.
	Requests int64

	latencySum float64
}

// add records one request's latency under metrics.LatencyStats.Add's
// rule: negative, NaN and infinite samples are dropped, so every tally
// counts the same requests as Overall.
func (t *LatencyTally) add(ms float64) {
	if ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return
	}
	t.Requests++
	t.latencySum += ms
}

// MeanLatency returns the average latency, or 0 with no requests.
func (t *LatencyTally) MeanLatency() float64 {
	if t.Requests == 0 {
		return 0
	}
	return t.latencySum / float64(t.Requests)
}

// GroupStat aggregates per-cooperative-group counters.
type GroupStat struct {
	// LatencyTally counts the recorded requests arriving at the group's
	// members and sums their latency.
	LatencyTally
	// LocalHits / GroupHits / OriginFetches classify those requests.
	LocalHits     int64
	GroupHits     int64
	OriginFetches int64
}

// GroupHitRate returns the share of the group's requests served by a peer.
func (g *GroupStat) GroupHitRate() float64 {
	if g.Requests == 0 {
		return 0
	}
	return float64(g.GroupHits) / float64(g.Requests)
}

// Report aggregates the outcome of one simulation run.
type Report struct {
	// Overall aggregates latency over every recorded request.
	Overall metrics.LatencyStats
	// PerCache aggregates latency per edge cache.
	PerCache []LatencyTally
	// PerGroup aggregates counters per cooperative group.
	PerGroup []GroupStat

	// LocalHits counts fresh local cache hits.
	LocalHits int64
	// GroupHits counts requests served by a cooperative group peer.
	GroupHits int64
	// OriginFetches counts requests served by the origin after a group-wide
	// miss.
	OriginFetches int64
	// FailoverFetches counts requests at failed caches routed straight to
	// the origin.
	FailoverFetches int64
	// Updates counts applied origin updates.
	Updates int64
	// OriginKB is the total volume fetched from the origin server — the
	// origin load that cooperation exists to reduce.
	OriginKB float64
	// InvalidationsOrigin counts invalidation messages the origin sent
	// (one per group holding an updated document; push mode only).
	InvalidationsOrigin int64
	// InvalidationsForwarded counts intra-group invalidation forwards
	// (push mode only). Origin + forwarded equals the per-cache push bill,
	// so InvalidationsOrigin alone is the origin's saving.
	InvalidationsForwarded int64

	requests int64
	groupOf  []int
}

func newReport(numCaches, numGroups int, groupOf []int) *Report {
	return &Report{
		PerCache: make([]LatencyTally, numCaches),
		PerGroup: make([]GroupStat, numGroups),
		groupOf:  groupOf,
	}
}

func (r *Report) record(c topology.CacheIndex, latencyMS float64, how outcome) {
	r.Overall.Add(latencyMS)
	r.PerCache[int(c)].add(latencyMS)
	r.requests++
	switch how {
	case outcomeLocal:
		r.LocalHits++
	case outcomeGroup:
		r.GroupHits++
	case outcomeOrigin:
		r.OriginFetches++
	case outcomeFailover:
		r.FailoverFetches++
	}
	if len(r.groupOf) > int(c) {
		g := &r.PerGroup[r.groupOf[int(c)]]
		g.add(latencyMS)
		switch how {
		case outcomeLocal:
			g.LocalHits++
		case outcomeGroup:
			g.GroupHits++
		case outcomeOrigin, outcomeFailover:
			g.OriginFetches++
		}
	}
}

// Requests returns the number of recorded (post-warmup) requests.
func (r *Report) Requests() int64 { return r.requests }

// MeanLatency returns the network-wide average edge cache latency — the
// paper's client-side performance metric.
func (r *Report) MeanLatency() float64 { return r.Overall.Mean() }

// MeanLatencyOf returns the average latency over a subset of caches (used
// for the paper's 50-nearest / 50-farthest breakdown in Fig 3). Caches with
// no recorded requests are skipped.
func (r *Report) MeanLatencyOf(subset []topology.CacheIndex) float64 {
	var sum float64
	var count int64
	for _, c := range subset {
		if int(c) < 0 || int(c) >= len(r.PerCache) {
			continue
		}
		st := &r.PerCache[int(c)]
		if st.Requests == 0 {
			continue
		}
		// Use the exact running sum; reconstructing it as
		// MeanLatency()*Requests round-trips through a division and drifts
		// from the recorded total.
		sum += st.latencySum
		count += st.Requests
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// HitRates returns the local, group, and origin shares of recorded
// requests (excluding failover traffic).
func (r *Report) HitRates() (local, group, origin float64) {
	total := float64(r.LocalHits + r.GroupHits + r.OriginFetches)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(r.LocalHits) / total, float64(r.GroupHits) / total, float64(r.OriginFetches) / total
}

// Verify checks the report's conservation invariants against the offered
// request and update logs: per-outcome counts sum to recorded requests,
// recorded counts never exceed offered ones, origin volume is consistent
// with origin-served requests, invalidation counters are non-negative and
// bounded, and the per-cache/per-group aggregates agree with the overall
// counters. It is called automatically by Run when Config.Verify is set.
func (r *Report) Verify(requests []workload.Request, updates []workload.Update) error {
	return r.verifyWithBounds(int64(len(requests)), int64(len(updates)), 0, 0)
}

// kbTolerance absorbs float accumulation error in volume sums.
const kbTolerance = 1e-6

// verifyWithBounds is Verify with the logs' lengths and, when positive,
// the catalog's smallest and largest document size, which bound the origin
// volume the origin-served requests can produce. It returns the first
// violated invariant as a *verify.Error.
func (r *Report) verifyWithBounds(offeredRequests, offeredUpdates int64, minDocKB, maxDocKB float64) error {
	fail := func(format string, args ...any) error { return verify.Errorf("report", format, args...) }
	if c := int64(r.Overall.Count()); c != r.requests {
		return fail("overall aggregate holds %d samples, recorded requests %d", c, r.requests)
	}
	counters := []struct {
		name string
		v    int64
	}{
		{"requests", r.requests},
		{"local hits", r.LocalHits},
		{"group hits", r.GroupHits},
		{"origin fetches", r.OriginFetches},
		{"failover fetches", r.FailoverFetches},
		{"updates", r.Updates},
		{"origin invalidations", r.InvalidationsOrigin},
		{"forwarded invalidations", r.InvalidationsForwarded},
	}
	for _, c := range counters {
		if c.v < 0 {
			return fail("%s counter is negative: %d", c.name, c.v)
		}
	}
	if sum := r.LocalHits + r.GroupHits + r.OriginFetches + r.FailoverFetches; sum != r.requests {
		return fail("outcome counts sum to %d, recorded requests %d", sum, r.requests)
	}
	if r.requests > offeredRequests {
		return fail("recorded %d requests, only %d offered", r.requests, offeredRequests)
	}
	if r.Updates > offeredUpdates {
		return fail("recorded %d updates, only %d offered", r.Updates, offeredUpdates)
	}
	if r.OriginKB < 0 || math.IsNaN(r.OriginKB) || math.IsInf(r.OriginKB, 0) {
		return fail("origin volume is %v KB", r.OriginKB)
	}
	originServed := r.OriginFetches + r.FailoverFetches
	if originServed == 0 && r.OriginKB > kbTolerance {
		return fail("origin volume %v KB with no origin-served requests", r.OriginKB)
	}
	if minDocKB > 0 && r.OriginKB < float64(originServed)*minDocKB-kbTolerance {
		return fail("origin volume %v KB below %d origin-served requests x min document %v KB",
			r.OriginKB, originServed, minDocKB)
	}
	if maxDocKB > 0 && r.OriginKB > float64(originServed)*maxDocKB+kbTolerance {
		return fail("origin volume %v KB exceeds %d origin-served requests x max document %v KB",
			r.OriginKB, originServed, maxDocKB)
	}
	if groups := int64(len(r.PerGroup)); groups > 0 && r.InvalidationsOrigin > r.Updates*groups {
		return fail("%d origin invalidations exceed %d updates x %d groups",
			r.InvalidationsOrigin, r.Updates, groups)
	}
	if r.InvalidationsOrigin == 0 && r.InvalidationsForwarded > 0 {
		return fail("%d forwarded invalidations without origin invalidations", r.InvalidationsForwarded)
	}
	// The per-cache and per-group aggregates are updated at independent
	// call sites, so their agreement with the overall count is a real
	// cross-check.
	var perCache int64
	for i := range r.PerCache {
		perCache += r.PerCache[i].Requests
	}
	if perCache != r.requests {
		return fail("per-cache counts sum to %d, recorded requests %d", perCache, r.requests)
	}
	var perGroup int64
	for g := range r.PerGroup {
		c := r.PerGroup[g].Requests
		if c < 0 {
			return fail("per-group count %d is negative: %d", g, c)
		}
		perGroup += c
	}
	if perGroup != r.requests {
		return fail("per-group counts sum to %d, recorded requests %d", perGroup, r.requests)
	}
	return nil
}

// Checksum returns a stable FNV-1a digest of the report's aggregates:
// request/outcome/update counters, origin volume, invalidation counters,
// and the per-cache and per-group sums. Replaying the same (seed, config)
// pair must reproduce the checksum bit-for-bit.
func (r *Report) Checksum() uint64 {
	d := verify.NewDigest()
	d.Int64(r.requests)
	d.Int64(r.LocalHits).Int64(r.GroupHits).Int64(r.OriginFetches).Int64(r.FailoverFetches)
	d.Int64(r.Updates)
	d.Float64(r.OriginKB)
	d.Int64(r.InvalidationsOrigin).Int64(r.InvalidationsForwarded)
	d.Int(r.Overall.Count()).Float64(r.Overall.Sum())
	d.Int(len(r.PerCache))
	for i := range r.PerCache {
		d.Int64(r.PerCache[i].Requests).Float64(r.PerCache[i].latencySum)
	}
	d.Int(len(r.PerGroup))
	for g := range r.PerGroup {
		gs := &r.PerGroup[g]
		d.Int64(gs.Requests).Int64(gs.LocalHits).Int64(gs.GroupHits).Int64(gs.OriginFetches)
		d.Float64(gs.latencySum)
	}
	return d.Sum64()
}

// String implements fmt.Stringer with a one-line summary.
func (r *Report) String() string {
	l, g, o := r.HitRates()
	return fmt.Sprintf("requests=%d meanLatency=%.2fms local=%.1f%% group=%.1f%% origin=%.1f%% updates=%d",
		r.requests, r.MeanLatency(), l*100, g*100, o*100, r.Updates)
}
