package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// FeatureSource returns a cache's *current* feature vector (its RTTs to
// the plan's landmarks, freshly measured). The production implementation
// probes the landmark set; the serving daemon reads the latest ingested
// stats; tests inject synthetic drift. The returned vector must not be
// mutated afterwards: on drift it is stored verbatim in the next plan.
type FeatureSource func(i topology.CacheIndex) (cluster.Vector, error)

// MaintainerConfig tunes group maintenance. Internet RTTs drift as routes
// and load change, so a deployed edge cache network must refresh its
// groups; the paper fixes the group formation inputs ("caches repeatedly
// measure their network distance to these landmark nodes"), and this
// component supplies the missing maintenance round: cheap incremental
// reassignment for isolated drift, full re-clustering when drift is
// widespread. The caller owns the clock and calls MaintainRound.
type MaintainerConfig struct {
	// Interval is the serving engine's tick period (serve.Engine.Start);
	// MaintainRound does not use it. Zero means the engine's default.
	Interval time.Duration
	// SampleFraction is the fraction of caches re-measured per round, in
	// (0, 1]. Sampling keeps the monitoring probe bill bounded.
	SampleFraction float64
	// DriftThreshold is the relative L2 feature change that marks a cache
	// as drifted (e.g. 0.2 = 20%).
	DriftThreshold float64
	// ReclusterFraction: when more than this fraction of the *measured*
	// caches drifted, the round triggers a full re-clustering instead
	// of incremental reassignment. Caches the FeatureSource could not
	// measure are excluded from the denominator, so failed probes never
	// dilute the trigger.
	ReclusterFraction float64
}

// DefaultMaintainerConfig returns sensible maintenance defaults.
func DefaultMaintainerConfig() MaintainerConfig {
	return MaintainerConfig{
		SampleFraction:    0.25,
		DriftThreshold:    0.2,
		ReclusterFraction: 0.5,
	}
}

// Validate reports whether the config is usable.
func (c MaintainerConfig) Validate() error {
	// NaN slips through every ordered comparison below (a NaN threshold
	// never detects drift), so non-finite values are rejected first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SampleFraction", c.SampleFraction},
		{"DriftThreshold", c.DriftThreshold},
		{"ReclusterFraction", c.ReclusterFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.Interval < 0:
		return fmt.Errorf("core: Interval must be >= 0, got %v", c.Interval)
	case c.SampleFraction <= 0 || c.SampleFraction > 1:
		return fmt.Errorf("core: SampleFraction must be in (0,1], got %v", c.SampleFraction)
	case c.DriftThreshold <= 0:
		return fmt.Errorf("core: DriftThreshold must be > 0, got %v", c.DriftThreshold)
	case c.ReclusterFraction <= 0 || c.ReclusterFraction > 1:
		return fmt.Errorf("core: ReclusterFraction must be in (0,1], got %v", c.ReclusterFraction)
	}
	return nil
}

// MaintainerEvent describes one maintenance round's outcome.
type MaintainerEvent struct {
	// Round numbers the caller's rounds from 1; MaintainRound leaves it
	// zero for the caller to stamp.
	Round int
	// Sampled is the number of caches actually re-measured (successful
	// FeatureSource calls). Caches selected for the round but skipped
	// because measurement failed are counted in Skipped instead.
	Sampled int
	// Skipped is the number of selected caches whose measurement failed
	// (unreachable caches, no fresh stats).
	Skipped int
	// Drifted lists measured caches whose features moved beyond the
	// threshold.
	Drifted []topology.CacheIndex
	// Reassigned lists drifted caches that changed group incrementally.
	Reassigned []topology.CacheIndex
	// Reclustered reports whether a full re-clustering replaced the plan.
	Reclustered bool
	// Err carries a round-level failure (the caller keeps the last good
	// plan).
	Err error
}

// MaintainRound runs one synchronous maintenance round over cur: it
// measures a sample of caches drawn from src and either re-clusters
// (widespread drift) or incrementally reassigns (isolated drift). It
// returns the plan to install next, which is cur itself when nothing
// drifted. cur is never mutated: an incremental round builds a
// copy-on-write successor, a re-clustering round takes recluster's plan,
// and either is verified before it is returned. On error the returned
// plan is cur, so the caller keeps serving the last good plan. The round
// keeps no state of its own: the caller (serve.Engine in the daemon) owns
// the clock, the round number, the counters and the publication of
// plans. recluster performs a full group re-formation (typically
// Coordinator.FormGroups) and may be nil to disable full refreshes.
func MaintainRound(cur *Plan, source FeatureSource, recluster func() (*Plan, error), cfg MaintainerConfig, src *simrand.Source) (next *Plan, ev MaintainerEvent, err error) {
	defer func() {
		if err != nil {
			next, ev.Err = cur, err
		}
	}()
	switch {
	case cur == nil:
		return nil, ev, errors.New("core: nil plan")
	case len(cur.Points) != cur.NumCaches() || cur.NumCaches() == 0:
		return nil, ev, fmt.Errorf("core: plan has %d points for %d caches", len(cur.Points), cur.NumCaches())
	case source == nil:
		return nil, ev, errors.New("core: nil feature source")
	case src == nil:
		return nil, ev, errors.New("core: nil random source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, ev, err
	}
	n := cur.NumCaches()
	sample := int(math.Ceil(cfg.SampleFraction * float64(n)))
	if sample > n {
		sample = n
	}
	idx, err := src.SampleWithoutReplacement(n, sample)
	if err != nil {
		return nil, ev, fmt.Errorf("sample caches: %w", err)
	}

	fresh := make(map[int]cluster.Vector, sample)
	for _, i := range idx {
		fv, err := source(topology.CacheIndex(i))
		if err != nil {
			ev.Skipped++ // unreachable cache: skip this round
			continue
		}
		if len(fv) != len(cur.Points[i]) {
			return nil, ev, fmt.Errorf("cache %d: feature dimension %d, want %d", i, len(fv), len(cur.Points[i]))
		}
		ev.Sampled++
		old := cur.Points[i]
		norm := vectorNorm(old)
		if norm < 1 {
			norm = 1
		}
		if cluster.L2(fv, old)/norm > cfg.DriftThreshold {
			ev.Drifted = append(ev.Drifted, topology.CacheIndex(i))
		}
		fresh[i] = fv
	}

	// Widespread drift among the caches actually measured: rebuild
	// everything. Skipped caches are excluded from the denominator so a
	// burst of probe failures cannot mask real drift.
	if recluster != nil && ev.Sampled > 0 &&
		float64(len(ev.Drifted))/float64(ev.Sampled) > cfg.ReclusterFraction {
		next, err = recluster()
		if err != nil {
			return nil, ev, fmt.Errorf("recluster: %w", err)
		}
		if next == nil || next.NumCaches() == 0 {
			return nil, ev, errors.New("recluster: returned an empty plan")
		}
		if err := next.Verify(nil); err != nil {
			return nil, ev, fmt.Errorf("recluster produced invalid plan: %w", err)
		}
		ev.Reclustered = true
		return next, ev, nil
	}

	if len(ev.Drifted) == 0 {
		return cur, ev, nil
	}

	// Isolated drift: copy-on-write. Build the next plan with refreshed
	// features, nearest-center reassignments, and recomputed centers for
	// every touched group. RTT points carry each cache's server distance
	// in their origin column, so it is refreshed with the point and the
	// plan stays self-consistent.
	next = cur.cloneShallow()
	originCol := -1
	if col, err := cur.OriginColumn(); err == nil {
		originCol = col
	}
	sizes := next.Sizes()
	touched := make([]bool, next.NumGroups())
	for _, ci := range ev.Drifted {
		i := int(ci)
		next.Points[i] = fresh[i]
		if i < len(next.Features) {
			next.Features[i] = fresh[i]
		}
		if originCol >= 0 && i < len(next.ServerDist) {
			next.ServerDist[i] = fresh[i][originCol]
		}
		// A drifted cache moves its group's mean even if it stays put.
		touched[next.Assignments[i]] = true
	}
	for _, ci := range ev.Drifted {
		i := int(ci)
		g, err := next.AssignPoint(next.Points[i])
		if err != nil {
			return nil, ev, err
		}
		old := next.Assignments[i]
		if g == old {
			continue
		}
		if sizes[old] == 1 {
			// Moving the last member would empty its group and break the
			// partition invariant; keep the cache in place (its recomputed
			// singleton center follows the drifted point, so it stops
			// looking reassignable once this plan is installed).
			continue
		}
		sizes[old]--
		sizes[g]++
		next.Assignments[i] = g
		touched[old] = true
		touched[g] = true
		ev.Reassigned = append(ev.Reassigned, ci)
	}
	refreshCenters(next, touched)
	if err := next.Verify(nil); err != nil {
		return nil, ev, fmt.Errorf("maintenance produced invalid plan: %w", err)
	}
	return next, ev, nil
}

// refreshCenters recomputes the centers of the touched groups so the
// published plan's centers reflect its points: member means for K-means
// (and unknown-algorithm) plans — restoring the centers-are-means
// invariant Verify checks — and the exact medoid (member minimizing total
// distance, lowest index on ties) for K-medoids plans, preserving the
// centers-are-real-points property. Replacement center vectors are fresh
// allocations; the shared vectors of the plan this one was cloned from are
// never written.
func refreshCenters(p *Plan, touched []bool) {
	if p.Algorithm == AlgoKMedoids {
		refreshMedoids(p, touched)
		return
	}
	if len(p.Points) == 0 || len(p.Centers) == 0 {
		return
	}
	dim := len(p.Points[0])
	sums := make(map[int][]float64, len(touched))
	counts := make(map[int]int, len(touched))
	for g, t := range touched {
		if t {
			sums[g] = make([]float64, dim)
		}
	}
	for i, a := range p.Assignments {
		s, ok := sums[a]
		if !ok {
			continue
		}
		counts[a]++
		for j, x := range p.Points[i] {
			s[j] += x
		}
	}
	for g, t := range touched { // slice range: index order, deterministic
		if !t || counts[g] == 0 {
			continue
		}
		mean := sums[g]
		for j := range mean {
			mean[j] /= float64(counts[g])
		}
		p.Centers[g] = mean
	}
}

// refreshMedoids recomputes the medoid of each touched group: the member
// whose summed L2 distance to the other members is minimal, lowest index
// winning ties (the same tie-break the batch K-medoids uses).
func refreshMedoids(p *Plan, touched []bool) {
	for g, t := range touched {
		if !t {
			continue
		}
		var members []int
		for i, a := range p.Assignments {
			if a == g {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		best, bestCost := members[0], math.Inf(1)
		for _, i := range members {
			var cost float64
			for _, j := range members {
				cost += cluster.L2(p.Points[i], p.Points[j])
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		p.Centers[g] = p.Points[best].Clone()
	}
}

func vectorNorm(v cluster.Vector) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}
