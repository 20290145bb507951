package cluster

import (
	"fmt"

	"edgecachegroups/internal/par"
)

// Silhouette returns the mean silhouette coefficient of a partition — a
// clustering-quality diagnostic in [-1, 1] where higher is better. For
// each point, a is its mean distance to its own cluster's other members
// and b the smallest mean distance to another cluster; the coefficient is
// (b-a)/max(a,b). Points in singleton clusters contribute 0, following the
// usual convention.
//
// The O(N²) outer loop fans out over at most workers goroutines (0 or 1
// means serial, matching Options.Parallelism semantics). Per-point work
// reads only shared immutable state, and the per-chunk partial sums are
// reduced in fixed chunk order, so the returned coefficient is
// bit-identical for every worker count. The per-cluster distance scratch
// is hoisted per worker — the O(N²) loop performs no allocations.
func Silhouette(points Matrix, assign []int, k, workers int) (float64, error) {
	if err := validateMatrix(points); err != nil {
		return 0, err
	}
	n := points.Rows()
	if len(assign) != n {
		return 0, fmt.Errorf("cluster: %d assignments for %d points", len(assign), n)
	}
	if k < 1 {
		return 0, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	sizes := make([]int, k)
	for i, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("cluster: assignment %d of point %d out of range [0,%d)", a, i, k)
		}
		sizes[a]++
	}
	if k == 1 {
		return 0, nil // silhouette undefined for a single cluster
	}

	nc := par.Chunks(n, pointChunk)
	if workers < 1 {
		workers = 1
	}
	if workers > nc {
		workers = nc
	}
	chunkTotals := make([]float64, nc)
	scratch := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = make([]float64, k)
	}
	par.ForEachWorker(nc, workers, func(w, c int) {
		sums := scratch[w]
		lo, hi := par.ChunkBounds(n, pointChunk, c)
		var sub float64
		for i := lo; i < hi; i++ {
			own := assign[i]
			if sizes[own] <= 1 {
				continue // singleton contributes 0
			}
			// Mean distance to each cluster.
			for j := range sums {
				sums[j] = 0
			}
			p := points.Row(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				sums[assign[j]] += L2(p, points.Row(j))
			}
			a := sums[own] / float64(sizes[own]-1)
			b := -1.0
			for cl := 0; cl < k; cl++ {
				if cl == own || sizes[cl] == 0 {
					continue
				}
				if m := sums[cl] / float64(sizes[cl]); b < 0 || m < b {
					b = m
				}
			}
			if b < 0 {
				continue // no other non-empty cluster
			}
			maxAB := a
			if b > maxAB {
				maxAB = b
			}
			if maxAB > 0 {
				sub += (b - a) / maxAB
			}
		}
		chunkTotals[c] = sub
	})
	var total float64
	for _, t := range chunkTotals {
		total += t
	}
	return total / float64(n), nil
}
