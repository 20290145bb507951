package cluster

import (
	"fmt"
	"math"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
)

// SuggestK helps operators pick the paper's "pre-specified parameter" K:
// it runs the clustering for every k in [1, kMax], records the
// within-cluster sum of squares, and returns the elbow of that curve —
// the k with the maximum perpendicular distance from the straight line
// joining the curve's endpoints (the "kneedle" heuristic).
//
// The kMax clusterings are independent — each k draws from its own
// src.SplitN("suggestk", k) stream, a pure function of (seed, k) — so
// they fan out over a worker pool bounded by opts.Parallelism (0 or 1
// means serial) with bit-identical results at every worker count.
//
// The returned curve holds the WithinClusterSS for k = 1..kMax (indexed
// k-1), so callers can plot or re-analyze it.
func SuggestK(points Matrix, kMax int, seeder Seeder, opts Options, src *simrand.Source) (int, []float64, error) {
	if err := validateMatrix(points); err != nil {
		return 0, nil, err
	}
	if kMax < 2 {
		return 0, nil, fmt.Errorf("cluster: kMax must be >= 2, got %d", kMax)
	}
	if kMax > points.Rows() {
		kMax = points.Rows()
	}
	if seeder == nil {
		seeder = UniformSeeder{}
	}

	curve := make([]float64, kMax)
	errs := make([]error, kMax)
	par.ForEach(kMax, max(opts.Parallelism, 1), func(i int) {
		k := i + 1
		res, err := KMeansMatrix(points, k, seeder, opts, src.SplitN("suggestk", k))
		if err != nil {
			errs[i] = fmt.Errorf("k=%d: %w", k, err)
			return
		}
		curve[i] = res.WithinClusterSS(points)
	})
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}

	// Kneedle: distance of each point from the chord between (1, curve[0])
	// and (kMax, curve[kMax-1]).
	x1, y1 := 1.0, curve[0]
	x2, y2 := float64(kMax), curve[kMax-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Sqrt(dx*dx + dy*dy)
	if norm == 0 {
		return 1, curve, nil // flat curve: one cluster suffices
	}
	bestK, bestD := 1, 0.0
	for k := 1; k <= kMax; k++ {
		// Perpendicular distance from (k, curve[k-1]) to the chord.
		d := math.Abs(dy*float64(k)-dx*curve[k-1]+x2*y1-y2*x1) / norm
		if d > bestD {
			bestK, bestD = k, d
		}
	}
	return bestK, curve, nil
}
