package cluster

import (
	"fmt"
	"math"

	"edgecachegroups/internal/simrand"
)

// Seeder chooses k initial cluster centers from points, returning point
// indices. Implementations must return k distinct indices.
type Seeder interface {
	Seed(points Matrix, k int, src *simrand.Source) ([]int, error)
}

// UniformSeeder picks k distinct points uniformly at random. This is the
// paper's SL-scheme initialization ("randomly chooses K edge caches").
type UniformSeeder struct{}

// Seed implements Seeder.
func (UniformSeeder) Seed(points Matrix, k int, src *simrand.Source) ([]int, error) {
	idx, err := src.SampleWithoutReplacement(points.Rows(), k)
	if err != nil {
		return nil, fmt.Errorf("uniform seed: %w", err)
	}
	return idx, nil
}

// WeightedSeeder picks k distinct points with probability proportional to
// the supplied per-point weights. The SDSL scheme uses weights
// 1/Dist(Ec, Os)^theta so that more initial centers land near the origin
// server; SDSLSeeder builds them.
type WeightedSeeder struct {
	// Weights holds one non-negative weight per point.
	Weights []float64
}

// Seed implements Seeder.
func (s WeightedSeeder) Seed(points Matrix, k int, src *simrand.Source) ([]int, error) {
	if n := points.Rows(); len(s.Weights) != n {
		return nil, fmt.Errorf("cluster: %d weights for %d points", len(s.Weights), n)
	}
	idx, err := src.WeightedSampleWithoutReplacement(s.Weights, k)
	if err != nil {
		return nil, fmt.Errorf("weighted seed: %w", err)
	}
	return idx, nil
}

// minServerDistMS floors the measured server distances SDSLSeeder weights
// by, so a near-zero RTT cannot make one cache's weight 1/d^theta swamp
// every other.
const minServerDistMS = 1.0

// SDSLSeeder returns the seeder of the paper's SL (theta = 0) and SDSL
// (theta > 0) schemes (§4.1). SL seeds uniformly; SDSL weights cache i by
// 1/max(serverDist[i], 1 ms)^theta, so initial centers favor caches near
// the origin server.
func SDSLSeeder(serverDist []float64, theta float64) Seeder {
	if theta == 0 {
		return UniformSeeder{}
	}
	weights := make([]float64, len(serverDist))
	for i, d := range serverDist {
		weights[i] = 1 / math.Pow(math.Max(d, minServerDistMS), theta)
	}
	return WeightedSeeder{Weights: weights}
}

// SpreadSeeder implements k-means++-style seeding: the first center is
// uniform, and each subsequent center is drawn with probability
// proportional to its squared distance from the nearest chosen center.
// This is the strongest interpretation of the paper's "ensuring that all
// regions of the edge cache network are represented"; it is provided for
// ablation studies.
type SpreadSeeder struct{}

// Seed implements Seeder.
func (SpreadSeeder) Seed(points Matrix, k int, src *simrand.Source) ([]int, error) {
	n := points.Rows()
	if k > n {
		return nil, fmt.Errorf("cluster: cannot seed %d centers from %d points", k, n)
	}
	chosen := make([]int, 0, k)
	chosen = append(chosen, src.Intn(n))
	minSq := make([]float64, n)
	for i := range minSq {
		minSq[i] = sqL2(points.Row(i), points.Row(chosen[0]))
	}
	for len(chosen) < k {
		i, err := src.WeightedChoice(minSq)
		if err != nil {
			// All remaining distances are zero (duplicate points): fall back
			// to the first unchosen index.
			i = -1
			taken := make(map[int]bool, len(chosen))
			for _, c := range chosen {
				taken[c] = true
			}
			for j := 0; j < n; j++ {
				if !taken[j] {
					i = j
					break
				}
			}
			if i < 0 {
				return nil, fmt.Errorf("spread seed: %w", err)
			}
		}
		chosen = append(chosen, i)
		for j := range minSq {
			if d := sqL2(points.Row(j), points.Row(i)); d < minSq[j] {
				minSq[j] = d
			}
		}
	}
	return chosen, nil
}
