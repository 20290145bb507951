// Package landmark implements the landmark-set selection strategies of the
// paper (§3.1 and §5.1):
//
//   - Greedy: the SL scheme's approximation-based greedy strategy. The
//     GF-coordinator samples M·(L−1) caches as the potential landmark set
//     (PLSet), measures pairwise RTTs among PLSet ∪ {Os}, and then greedily
//     grows the landmark set from {Os}, each step adding the candidate that
//     maximizes the minimum pairwise distance of the set.
//   - Random: landmarks drawn uniformly from the caches (plus the origin).
//   - MinDist: the adversarial baseline that minimizes landmark dispersion
//     (each step adds the candidate closest to the current set).
//
// All selectors always include the origin server, as the paper prescribes.
package landmark

import (
	"fmt"
	"math"

	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// Params configures landmark selection.
type Params struct {
	// L is the total number of landmarks including the origin server.
	L int
	// M is the PLSet multiplier: the potential landmark set holds M·(L−1)
	// caches. Only the Greedy and MinDist selectors use it.
	M int
}

// Validate checks the parameters against a network of numCaches caches.
func (p Params) Validate(numCaches int) error {
	switch {
	case p.L < 2:
		return fmt.Errorf("landmark: L must be >= 2 (origin plus at least one cache), got %d", p.L)
	case p.M < 1:
		return fmt.Errorf("landmark: M must be >= 1, got %d", p.M)
	case p.L-1 > numCaches:
		return fmt.Errorf("landmark: need %d cache landmarks but only %d caches", p.L-1, numCaches)
	case p.M*(p.L-1) > numCaches:
		return fmt.Errorf("landmark: PLSet size M*(L-1)=%d exceeds cache count %d", p.M*(p.L-1), numCaches)
	}
	return nil
}

// Fit returns the landmark parameters (l, m) shrunk to fit a network of n
// caches: M is at least 1, and L shrinks until the PLSet fits,
// M·(L−1) ≤ n. It never returns fewer than L = 2, M = 1.
func Fit(l, m, n int) Params {
	if m < 1 {
		m = 1
	}
	if m*(l-1) > n {
		l = n/m + 1
	}
	if l < 2 {
		l, m = 2, 1
	}
	return Params{L: l, M: m}
}

// Selector chooses a landmark set.
type Selector interface {
	// Select returns exactly params.L endpoints, the first of which is the
	// origin server.
	Select(p *probe.Prober, numCaches int, params Params, src *simrand.Source) ([]probe.Endpoint, error)
	// Name identifies the strategy in reports.
	Name() string
}

// Compile-time interface checks.
var (
	_ Selector = Greedy{}
	_ Selector = Random{}
	_ Selector = MinDist{}
)

// MinPairwiseDist returns the minimum measured distance over all unordered
// pairs in set (MinDist(LmSet) in the paper). Sets with fewer than two
// elements have an undefined minimum; +Inf is returned.
func MinPairwiseDist(p *probe.Prober, set []probe.Endpoint) (float64, error) {
	minD := math.Inf(1)
	m := p.NewMeasurer()
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			d, err := m.Measure(set[i], set[j])
			if err != nil {
				return 0, fmt.Errorf("measure pair (%v,%v): %w", set[i], set[j], err)
			}
			if d < minD {
				minD = d
			}
		}
	}
	return minD, nil
}

// SamplePLSet draws the potential landmark set: M·(L−1) distinct caches,
// uniformly from numCaches.
func SamplePLSet(numCaches int, params Params, src *simrand.Source) ([]topology.CacheIndex, error) {
	idx, err := src.SampleWithoutReplacement(numCaches, params.M*(params.L-1))
	if err != nil {
		return nil, fmt.Errorf("sample PLSet: %w", err)
	}
	out := make([]topology.CacheIndex, len(idx))
	for i, c := range idx {
		out[i] = topology.CacheIndex(c)
	}
	return out, nil
}

// withOrigin returns the origin server followed by the given caches.
func withOrigin(caches []topology.CacheIndex) []probe.Endpoint {
	out := make([]probe.Endpoint, 0, len(caches)+1)
	out = append(out, probe.Origin())
	for _, c := range caches {
		out = append(out, probe.Cache(c))
	}
	return out
}

// pick maps candidate indices back to their endpoints.
func pick(all []probe.Endpoint, idx []int) []probe.Endpoint {
	out := make([]probe.Endpoint, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out
}

// Disperse is the one greedy max–min selection kernel (paper §3.1, SL
// step 1). Over candidates 0..n−1, of which 0 is the origin and always
// chosen first, it grows the chosen set one candidate at a time: each step
// adds the eligible candidate whose minimum distance to the chosen set is
// largest (maximize) or smallest (!maximize), the lowest index winning
// ties. It stops after l candidates (l >= 1), or earlier once no eligible
// candidate is left, and returns the chosen indices in the order chosen.
// dist must be symmetric. eligible is consulted for candidates 1..n−1
// only; nil means every candidate is eligible.
func Disperse(n, l int, dist func(i, j int) float64, eligible func(i int) bool, maximize bool) []int {
	chosen := []int{0}
	inSet := make([]bool, n)
	inSet[0] = true
	// minToSet[i] = min distance from candidate i to the chosen set.
	minToSet := make([]float64, n)
	for i := range minToSet {
		minToSet[i] = dist(i, 0)
	}
	for len(chosen) < l {
		best := -1
		for i := 1; i < n; i++ {
			if inSet[i] || (eligible != nil && !eligible(i)) {
				continue
			}
			if best < 0 ||
				(maximize && minToSet[i] > minToSet[best]) ||
				(!maximize && minToSet[i] < minToSet[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inSet[best] = true
		for i := range minToSet {
			if d := dist(i, best); d < minToSet[i] {
				minToSet[i] = d
			}
		}
	}
	return chosen
}

// Greedy is the SL scheme's landmark selector.
type Greedy struct{}

// Name implements Selector.
func (Greedy) Name() string { return "greedy" }

// Select implements Selector.
func (Greedy) Select(p *probe.Prober, numCaches int, params Params, src *simrand.Source) ([]probe.Endpoint, error) {
	return selectByDispersion(p, numCaches, params, src, true)
}

// MinDist is the adversarial baseline that clumps landmarks together.
type MinDist struct{}

// Name implements Selector.
func (MinDist) Name() string { return "min-dist" }

// Select implements Selector.
func (MinDist) Select(p *probe.Prober, numCaches int, params Params, src *simrand.Source) ([]probe.Endpoint, error) {
	return selectByDispersion(p, numCaches, params, src, false)
}

// selectByDispersion runs Disperse over a sampled PLSet's measured
// distances: greedy max-min when maximize (SL scheme), min-dist otherwise.
func selectByDispersion(p *probe.Prober, numCaches int, params Params, src *simrand.Source, maximize bool) ([]probe.Endpoint, error) {
	if err := params.Validate(numCaches); err != nil {
		return nil, err
	}
	plset, err := SamplePLSet(numCaches, params, src)
	if err != nil {
		return nil, err
	}
	// The potential landmark points measure their distances to each other
	// and to the origin server (paper §3.1, phase 1).
	all := withOrigin(plset)
	dist, err := p.MeasureMatrix(all)
	if err != nil {
		return nil, fmt.Errorf("probe PLSet: %w", err)
	}
	// Validate guarantees M·(L−1) >= L−1 candidates, so Disperse fills L.
	chosen := Disperse(len(all), params.L, func(i, j int) float64 { return dist[i][j] }, nil, maximize)
	return pick(all, chosen), nil
}

// Random selects L−1 cache landmarks uniformly (plus the origin).
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "random" }

// Select implements Selector.
func (Random) Select(_ *probe.Prober, numCaches int, params Params, src *simrand.Source) ([]probe.Endpoint, error) {
	if err := params.Validate(numCaches); err != nil {
		return nil, err
	}
	idx, err := src.SampleWithoutReplacement(numCaches, params.L-1)
	if err != nil {
		return nil, fmt.Errorf("sample random landmarks: %w", err)
	}
	out := make([]probe.Endpoint, 0, params.L)
	out = append(out, probe.Origin())
	for _, c := range idx {
		out = append(out, probe.Cache(topology.CacheIndex(c)))
	}
	return out, nil
}
