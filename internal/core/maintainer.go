package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/obs"
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
// widespread. The caller owns the clock and calls RunOnce.
type MaintainerConfig struct {
	// Interval is the serving engine's tick period (serve.Engine.Start);
	// RunOnce does not use it. Zero means the engine's default.
	Interval time.Duration
	// SampleFraction is the fraction of caches re-measured per round, in
	// (0, 1]. Sampling keeps the monitoring probe bill bounded.
	SampleFraction float64
	// DriftThreshold is the relative L2 feature change that marks a cache
	// as drifted (e.g. 0.2 = 20%).
	DriftThreshold float64
	// ReclusterFraction: when more than this fraction of the *measured*
	// caches drifted, the maintainer triggers a full re-clustering instead
	// of incremental reassignment. Caches the FeatureSource could not
	// measure are excluded from the denominator, so failed probes never
	// dilute the trigger.
	ReclusterFraction float64
	// Obs is the optional observability sink for the per-round counters
	// maintainer_reclusters and maintainer_caches_{drifted,reassigned,
	// skipped}. Nil disables instrumentation.
	Obs *obs.Obs
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
	// Round numbers rounds from 1.
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
	// Err carries a round-level failure (the last good plan stays
	// installed).
	Err error
}

// Maintainer keeps a Plan aligned with current network conditions, one
// synchronous RunOnce round at a time. It starts no goroutine and keeps
// no error history: the caller (serve.Engine in the daemon) owns the
// clock, the health state and the publication of epochs.
//
// The installed plan is copy-on-write: every maintenance round builds a
// fresh *Plan (or receives one from recluster), verifies it, and installs
// it with one atomic pointer store, so Plan() hands out immutable
// snapshots that a concurrent query path can read without locks and
// without ever observing a half-applied round.
type Maintainer struct {
	cfg       MaintainerConfig
	source    FeatureSource
	recluster func() (*Plan, error)
	src       *simrand.Source

	plan atomic.Pointer[Plan]

	mu    sync.Mutex // serializes maintenance rounds
	round int

	reclusters, drifted, reassigned, skipped *obs.Counter
}

// NewMaintainer builds a maintainer over plan. source measures current
// features; recluster performs a full group re-formation (typically
// Coordinator.FormGroups) and may be nil to disable full refreshes.
func NewMaintainer(plan *Plan, source FeatureSource, recluster func() (*Plan, error), cfg MaintainerConfig, src *simrand.Source) (*Maintainer, error) {
	if plan == nil {
		return nil, errors.New("core: nil plan")
	}
	if len(plan.Points) != plan.NumCaches() || plan.NumCaches() == 0 {
		return nil, fmt.Errorf("core: plan has %d points for %d caches", len(plan.Points), plan.NumCaches())
	}
	if source == nil {
		return nil, errors.New("core: nil feature source")
	}
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Maintainer{
		cfg:        cfg,
		source:     source,
		recluster:  recluster,
		src:        src,
		reclusters: cfg.Obs.Counter("maintainer_reclusters"),
		drifted:    cfg.Obs.Counter("maintainer_caches_drifted"),
		reassigned: cfg.Obs.Counter("maintainer_caches_reassigned"),
		skipped:    cfg.Obs.Counter("maintainer_caches_skipped"),
	}
	m.plan.Store(plan)
	return m, nil
}

// Plan returns the current plan snapshot with one atomic pointer load.
// Published plans are immutable: maintenance rounds build a replacement
// and swap it in, so the returned plan is safe to read concurrently and
// indefinitely (it just goes stale).
func (m *Maintainer) Plan() *Plan { return m.plan.Load() }

// RunOnce executes one synchronous maintenance round and counts its
// per-cache outcome. A failed round returns its error (also in ev.Err)
// and leaves the last good plan installed.
func (m *Maintainer) RunOnce() (MaintainerEvent, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.round++
	ev := MaintainerEvent{Round: m.round}
	err := m.runRound(&ev)
	ev.Err = err
	m.drifted.Add(int64(len(ev.Drifted)))
	m.reassigned.Add(int64(len(ev.Reassigned)))
	m.skipped.Add(int64(ev.Skipped))
	if ev.Reclustered {
		m.reclusters.Inc()
	}
	return ev, err
}

// runRound measures a sample of caches against the current plan and either
// reclusters (widespread drift) or incrementally reassigns (isolated
// drift), publishing the next plan via one atomic store. The published
// plan is never mutated: on any error the last good plan stays installed.
func (m *Maintainer) runRound(ev *MaintainerEvent) error {
	cur := m.plan.Load()
	n := cur.NumCaches()
	sample := int(math.Ceil(m.cfg.SampleFraction * float64(n)))
	if sample > n {
		sample = n
	}
	idx, err := m.src.SampleWithoutReplacement(n, sample)
	if err != nil {
		return fmt.Errorf("sample caches: %w", err)
	}

	fresh := make(map[int]cluster.Vector, sample)
	for _, i := range idx {
		fv, err := m.source(topology.CacheIndex(i))
		if err != nil {
			ev.Skipped++ // unreachable cache: skip this round
			continue
		}
		if len(fv) != len(cur.Points[i]) {
			return fmt.Errorf("cache %d: feature dimension %d, want %d", i, len(fv), len(cur.Points[i]))
		}
		ev.Sampled++
		old := cur.Points[i]
		norm := vectorNorm(old)
		if norm < 1 {
			norm = 1
		}
		if cluster.L2(fv, old)/norm > m.cfg.DriftThreshold {
			ev.Drifted = append(ev.Drifted, topology.CacheIndex(i))
		}
		fresh[i] = fv
	}

	// Widespread drift among the caches actually measured: rebuild
	// everything. Skipped caches are excluded from the denominator so a
	// burst of probe failures cannot mask real drift.
	if m.recluster != nil && ev.Sampled > 0 &&
		float64(len(ev.Drifted))/float64(ev.Sampled) > m.cfg.ReclusterFraction {
		next, err := m.recluster()
		if err != nil {
			return fmt.Errorf("recluster: %w", err)
		}
		if next == nil || next.NumCaches() == 0 {
			return errors.New("recluster: returned an empty plan")
		}
		if err := next.Verify(nil); err != nil {
			return fmt.Errorf("recluster produced invalid plan: %w", err)
		}
		m.plan.Store(next)
		ev.Reclustered = true
		return nil
	}

	if len(ev.Drifted) == 0 {
		return nil
	}

	// Isolated drift: copy-on-write. Build the next plan with refreshed
	// features, nearest-center reassignments, and recomputed centers for
	// every touched group, then swap it in atomically. RTT points carry
	// each cache's server distance in their origin column, so it is
	// refreshed with the point and the plan stays self-consistent.
	next := cur.cloneShallow()
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
			return err
		}
		old := next.Assignments[i]
		if g == old {
			continue
		}
		if sizes[old] == 1 {
			// Moving the last member would empty its group and break the
			// partition invariant; keep the cache in place (its recomputed
			// singleton center follows the drifted point, so it stops
			// looking reassignable once the swap lands).
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
		return fmt.Errorf("maintenance produced invalid plan: %w", err)
	}
	m.plan.Store(next)
	return nil
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
