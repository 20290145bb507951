// Package cluster implements the K-means clustering engine used by the SL,
// SDSL, and Euclidean group formation schemes. Initial-center seeding is
// pluggable: the SL scheme seeds uniformly at random, while the SDSL scheme
// seeds with probability inversely proportional to a cache's distance from
// the origin server (paper §4.1).
package cluster

import (
	"fmt"
	"math"
)

// Vector is a point in feature space: for the SL/SDSL schemes, the vector
// of measured RTTs from a cache to each landmark; for the Euclidean scheme,
// GNP coordinates.
type Vector []float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// L2 returns the Euclidean distance between a and b. It panics if the
// dimensions differ; dimension agreement is validated once at clustering
// entry, making this hot-path function panic-free in practice.
func L2(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: dimension mismatch %d vs %d", len(a), len(b)))
	}
	return math.Sqrt(sqL2(a, b))
}

// sqL2 returns the squared Euclidean distance (cheaper for comparisons).
//
// The kernel is the formation pipeline's innermost loop (every K-means
// assignment decision funnels through it), so it is written in the
// unrolled flat-row form: four independent accumulators break the
// floating-point add dependency chain, and the up-front length clip lets
// the compiler hoist the bounds checks out of the loop. Both K-means
// reassignment paths (exhaustive and bounds-pruned) and every other
// cluster-package distance share this one kernel, so their computed
// distances — and therefore every nearest-center comparison — are
// identical by construction.
func sqL2(a, b Vector) float64 {
	b = b[:len(a)] // one bounds check here instead of one per component
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// isNaNOrInf reports whether x is NaN or ±Inf without the math-package
// call overhead in validation loops over flat matrices.
func isNaNOrInf(x float64) bool {
	return x != x || x > math.MaxFloat64 || x < -math.MaxFloat64
}
