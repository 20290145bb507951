package landmark

import (
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// Oracle is an idealized selector that runs the same greedy max-min
// algorithm as the SL scheme but over TRUE (noise-free) RTTs and over the
// entire cache set rather than a sampled PLSet. It is an upper bound on
// what landmark selection can achieve: the gap between Oracle and Greedy
// quantifies what the PLSet sampling and measurement noise cost.
//
// Oracle is not deployable (it assumes free global knowledge); it exists
// for ablations and tests.
type Oracle struct{}

var _ Selector = Oracle{}

// Name implements Selector.
func (Oracle) Name() string { return "oracle" }

// Select implements Selector.
func (Oracle) Select(p *probe.Prober, numCaches int, params Params, _ *simrand.Source) ([]probe.Endpoint, error) {
	if err := params.Validate(numCaches); err != nil {
		return nil, err
	}
	// Candidate set: every cache.
	caches := make([]topology.CacheIndex, numCaches)
	for i := range caches {
		caches[i] = topology.CacheIndex(i)
	}
	all := withOrigin(caches)
	chosen := Disperse(len(all), params.L, func(i, j int) float64 { return p.TrueRTT(all[i], all[j]) }, nil, true)
	return pick(all, chosen), nil
}
