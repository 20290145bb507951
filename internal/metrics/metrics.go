// Package metrics implements the paper's two evaluation metrics — the
// average group interaction cost (§2) and the average edge cache latency
// (§4) — plus general latency aggregation utilities.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"edgecachegroups/internal/topology"
)

// GroupInteractionCost returns GICost(group): the mean true RTT over all
// unordered pairs of caches in the group. Groups with fewer than two
// members have no pairs and cost 0.
func GroupInteractionCost(nw *topology.Network, members []topology.CacheIndex) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += nw.Dist(members[i], members[j])
		}
	}
	return sum / float64(n*(n-1)/2)
}

// AvgGroupInteractionCost returns the mean of GroupInteractionCost over all
// non-empty groups — the paper's clustering-accuracy metric.
func AvgGroupInteractionCost(nw *topology.Network, groups [][]topology.CacheIndex) float64 {
	var sum float64
	var count int
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sum += GroupInteractionCost(nw, g)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// LatencyStats accumulates latency samples (milliseconds) and reports
// summary statistics. The zero value is ready to use.
//
// samples always stays in insertion order: Percentile and String rank on
// a separate sorted scratch copy. This is a determinism requirement, not
// a style choice — Merge replays samples in their stored order, so a
// read-only query that reordered them would change the float-addition
// order (and therefore the low bits of Sum) of every later Merge.
type LatencyStats struct {
	samples []float64
	scratch []float64 // lazily sorted copy of samples, invalidated by Add
	sum     float64
	min     float64
	max     float64
	sorted  bool
}

// Add records one sample. Negative samples are ignored (they indicate
// accounting bugs upstream and must not corrupt aggregates).
func (s *LatencyStats) Add(ms float64) {
	if ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return
	}
	if len(s.samples) == 0 || ms < s.min {
		s.min = ms
	}
	if len(s.samples) == 0 || ms > s.max {
		s.max = ms
	}
	s.samples = append(s.samples, ms)
	s.sum += ms
	s.sorted = false
}

// Grow reserves room for n more samples, so a caller that knows how many
// it will add pays for one allocation instead of append's regrowth.
func (s *LatencyStats) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// Merge folds other's samples into s.
func (s *LatencyStats) Merge(other *LatencyStats) {
	for _, v := range other.samples {
		s.Add(v)
	}
}

// Count returns the number of samples.
func (s *LatencyStats) Count() int { return len(s.samples) }

// Sum returns the exact running total of all samples, for conservation
// checks and bit-stable digests (Mean()*Count() would reintroduce rounding).
func (s *LatencyStats) Sum() float64 { return s.sum }

// Mean returns the average sample, or 0 with no samples.
func (s *LatencyStats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (s *LatencyStats) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *LatencyStats) Max() float64 { return s.max }

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank on the sorted samples. It returns 0 with no samples.
func (s *LatencyStats) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	if !s.sorted {
		s.scratch = append(s.scratch[:0], s.samples...)
		sort.Float64s(s.scratch)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.scratch[rank-1]
}

// String implements fmt.Stringer with a compact summary.
func (s *LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms max=%.2fms",
		s.Count(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Max())
}
