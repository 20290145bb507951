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

// pickPLSet samples the potential landmark set.
func pickPLSet(numCaches int, params Params, src *simrand.Source) ([]probe.Endpoint, error) {
	size := params.M * (params.L - 1)
	idx, err := src.SampleWithoutReplacement(numCaches, size)
	if err != nil {
		return nil, fmt.Errorf("sample PLSet: %w", err)
	}
	out := make([]probe.Endpoint, size)
	for i, c := range idx {
		out[i] = probe.Cache(topology.CacheIndex(c))
	}
	return out, nil
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

// selectByDispersion grows the landmark set from {Os}. When maximize is
// true each step adds the PLSet candidate with the largest minimum distance
// to the chosen set (greedy max-min, SL scheme); when false, the smallest
// (min-dist baseline).
func selectByDispersion(p *probe.Prober, numCaches int, params Params, src *simrand.Source, maximize bool) ([]probe.Endpoint, error) {
	if err := params.Validate(numCaches); err != nil {
		return nil, err
	}
	plset, err := pickPLSet(numCaches, params, src)
	if err != nil {
		return nil, err
	}
	// The potential landmark points measure their distances to each other
	// and to the origin server (paper §3.1, phase 1).
	all := append([]probe.Endpoint{probe.Origin()}, plset...)
	dist, err := p.MeasureMatrix(all)
	if err != nil {
		return nil, fmt.Errorf("probe PLSet: %w", err)
	}

	chosen := []int{0} // index into all; 0 is the origin
	inSet := make([]bool, len(all))
	inSet[0] = true
	// minToSet[i] = min distance from candidate i to the chosen set.
	minToSet := make([]float64, len(all))
	for i := range minToSet {
		minToSet[i] = dist[i][0]
	}
	for len(chosen) < params.L {
		best := -1
		for i := 1; i < len(all); i++ {
			if inSet[i] {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if maximize && minToSet[i] > minToSet[best] {
				best = i
			} else if !maximize && minToSet[i] < minToSet[best] {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("landmark: PLSet exhausted at %d of %d landmarks", len(chosen), params.L)
		}
		chosen = append(chosen, best)
		inSet[best] = true
		for i := range minToSet {
			if d := dist[i][best]; d < minToSet[i] {
				minToSet[i] = d
			}
		}
	}

	out := make([]probe.Endpoint, len(chosen))
	for i, idx := range chosen {
		out[i] = all[idx]
	}
	return out, nil
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
