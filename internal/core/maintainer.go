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
// component supplies the missing operational loop: cheap incremental
// reassignment for isolated drift, full re-clustering when drift is
// widespread.
type MaintainerConfig struct {
	// Interval is the period between maintenance rounds (Start/Stop mode).
	// Zero means the default (1 minute).
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
	// Verify audits every candidate plan against the invariant-checking
	// layer before it is published; a plan that fails verification is
	// discarded and the round reports an error while the last good plan
	// keeps serving.
	Verify bool
	// Obs is the optional observability sink: per-round counters
	// (maintainer_rounds, maintainer_round_errors, maintainer_reclusters,
	// maintainer_caches_{drifted,reassigned,skipped}) and a
	// maintainer_last_error_round gauge. Nil disables instrumentation.
	Obs *obs.Obs
}

// DefaultMaintainerConfig returns sensible maintenance defaults.
func DefaultMaintainerConfig() MaintainerConfig {
	return MaintainerConfig{
		Interval:          time.Minute,
		SampleFraction:    0.25,
		DriftThreshold:    0.2,
		ReclusterFraction: 0.5,
		Verify:            true,
	}
}

// Validate reports whether the config is usable.
func (c MaintainerConfig) Validate() error {
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
	// Err carries a round-level failure (the maintainer keeps running and
	// keeps serving the last good plan).
	Err error
}

// Maintainer keeps a Plan aligned with current network conditions.
//
// The published plan is copy-on-write: every maintenance round builds a
// fresh *Plan (or receives one from recluster) and installs it with one
// atomic pointer store, so Plan() hands out immutable snapshots that a
// concurrent query path can read without locks and without ever observing
// a half-applied round.
type Maintainer struct {
	cfg       MaintainerConfig
	source    FeatureSource
	recluster func() (*Plan, error)
	src       *simrand.Source

	plan atomic.Pointer[Plan]

	mu    sync.Mutex // serializes maintenance rounds
	round int

	errMu        sync.Mutex // guards lastErr; separate so LastError never blocks on a round
	lastErr      error
	lastErrRound int

	rounds, roundErrors, reclusters   *obs.Counter
	drifted, reassigned, skippedCount *obs.Counter
	lastErrGauge                      *obs.Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	events    chan MaintainerEvent
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
	if cfg.Interval == 0 {
		cfg.Interval = time.Minute
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Maintainer{
		cfg:          cfg,
		source:       source,
		recluster:    recluster,
		src:          src,
		rounds:       cfg.Obs.Counter("maintainer_rounds"),
		roundErrors:  cfg.Obs.Counter("maintainer_round_errors"),
		reclusters:   cfg.Obs.Counter("maintainer_reclusters"),
		drifted:      cfg.Obs.Counter("maintainer_caches_drifted"),
		reassigned:   cfg.Obs.Counter("maintainer_caches_reassigned"),
		skippedCount: cfg.Obs.Counter("maintainer_caches_skipped"),
		lastErrGauge: cfg.Obs.Gauge("maintainer_last_error_round"),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		events:       make(chan MaintainerEvent, 1),
	}
	m.plan.Store(plan)
	return m, nil
}

// Plan returns the current plan snapshot with one atomic pointer load.
// Published plans are immutable: maintenance rounds build a replacement
// and swap it in, so the returned plan is safe to read concurrently and
// indefinitely (it just goes stale).
func (m *Maintainer) Plan() *Plan { return m.plan.Load() }

// LastError returns the most recent round-level failure and the round it
// occurred in (0, nil when no round has failed yet). Unlike the Events
// channel it is never dropped, so a daemon health endpoint can always
// surface the latest failure.
func (m *Maintainer) LastError() (round int, err error) {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.lastErrRound, m.lastErr
}

// Events returns the channel on which background rounds report. Successful
// rounds are dropped if the consumer lags (capacity 1); a round that
// failed evicts a queued stale event so the freshest error is observable,
// and every failure is additionally recorded in LastError and the
// maintainer_round_errors counter regardless of channel state.
func (m *Maintainer) Events() <-chan MaintainerEvent { return m.events }

// RunOnce executes one synchronous maintenance round.
func (m *Maintainer) RunOnce() (MaintainerEvent, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.round++
	ev := MaintainerEvent{Round: m.round}
	err := m.runRound(&ev)
	ev.Err = err
	m.record(ev)
	return ev, err
}

// record updates the observability counters and the sticky last-error
// state for one completed round.
func (m *Maintainer) record(ev MaintainerEvent) {
	m.rounds.Inc()
	m.drifted.Add(int64(len(ev.Drifted)))
	m.reassigned.Add(int64(len(ev.Reassigned)))
	m.skippedCount.Add(int64(ev.Skipped))
	if ev.Reclustered {
		m.reclusters.Inc()
	}
	if ev.Err != nil {
		m.roundErrors.Inc()
		m.lastErrGauge.Set(float64(ev.Round))
		m.errMu.Lock()
		m.lastErr = ev.Err
		m.lastErrRound = ev.Round
		m.errMu.Unlock()
	}
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
		if m.cfg.Verify {
			if err := next.Verify(nil); err != nil {
				return fmt.Errorf("recluster produced invalid plan: %w", err)
			}
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
	if m.cfg.Verify {
		if err := next.Verify(nil); err != nil {
			return fmt.Errorf("maintenance produced invalid plan: %w", err)
		}
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

// Start launches the background maintenance loop. Stop shuts it down.
func (m *Maintainer) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			//ecglint:allow detclock the live maintenance loop refreshes on a wall-clock interval; simulated runs call RunOnce directly
			ticker := time.NewTicker(m.cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-ticker.C:
					//ecglint:allow errdrop the round error rides in ev.Err and the round-error counters; publish delivers it
					ev, _ := m.RunOnce()
					m.publish(ev)
				}
			}
		}()
	})
}

// publish delivers one round event. Successful rounds keep the historical
// drop-on-lag contract (capacity 1, consumer lagging drops the event). A
// failed round must not vanish silently: it evicts a queued stale event
// and takes its slot, so the freshest error is always observable on the
// channel (and, independently of the channel, via LastError and the
// maintainer_round_errors counter).
func (m *Maintainer) publish(ev MaintainerEvent) {
	select {
	case m.events <- ev:
		return
	default:
	}
	if ev.Err == nil {
		return // consumer lagging: drop the success
	}
	select {
	case <-m.events:
	default:
	}
	select {
	case m.events <- ev:
	default:
	}
}

// Stop signals the background loop to exit and waits for it. Stop is safe
// to call without Start and is idempotent.
func (m *Maintainer) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) }) // never started: mark done
	<-m.done
}

func vectorNorm(v cluster.Vector) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}
