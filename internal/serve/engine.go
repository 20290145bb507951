// Package serve is the long-running group-formation service behind
// cmd/groupformd: it ingests live per-cache request/RTT statistics over
// HTTP/JSON (a round takes the pending reports with one swap, so the
// write path never waits on aggregation), maintains the group plan one
// core.MaintainRound at a time, and serves plan/assignment queries at
// high RPS from immutable copy-on-write plan epochs (one atomic pointer
// load per query, no locks).
//
// Degradation discipline (after the EdgeComet Edge Gateway exemplar):
// when re-formation fails — quorum loss, probe errors, an invalid
// candidate plan — the daemon keeps serving the last good epoch, counts
// the failure, and reports "degraded" (stale-but-serving) on /healthz
// instead of going down. Plans persist crash-safely (tmp + fsync +
// rename) and reload on start.
package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// Epoch is one immutable published generation of the plan. Query handlers
// load the current epoch with one atomic pointer read and may keep using
// it for the whole request: maintenance never mutates a published epoch,
// it installs a successor.
type Epoch struct {
	// Seq numbers epochs from 1 (the boot plan).
	Seq uint64
	// Plan is the immutable plan snapshot.
	Plan *core.Plan
	// Checksum is Plan.Checksum(), precomputed so queries don't rehash.
	Checksum uint64
	// Updated is the wall-clock publication time.
	Updated time.Time
}

// Config configures an Engine.
type Config struct {
	// Plan is the boot plan (required). Restore a snapshot with
	// LoadSnapshot before constructing the engine to survive restarts.
	Plan *core.Plan
	// Recluster performs a full re-formation when drift is widespread.
	// Nil installs the default: Plan.Reform over the current feature
	// vectors (plan features overlaid with the freshest ingested stats),
	// which re-forms with the plan's own scheme (SL or SDSL with its θ),
	// algorithm and group count, as batch formation does.
	Recluster func() (*core.Plan, error)
	// Maint tunes the maintenance rounds. With SampleFraction,
	// DriftThreshold and ReclusterFraction all zero the daemon defaults
	// apply (core's, with SampleFraction 1, since reading ingested stats
	// is free); any other setting is validated as given. Interval is the
	// Start tick period (zero: one minute).
	Maint core.MaintainerConfig
	// Rand seeds cache sampling and re-clustering (required).
	Rand *simrand.Source
	// Obs is the optional observability sink shared with the HTTP layer.
	Obs *obs.Obs
	// SnapshotPath, when non-empty, persists every published epoch
	// crash-safely (tmp + fsync + rename) for reload on restart.
	SnapshotPath string
	// ResumeEpoch seeds the epoch sequence when booting from a restored
	// snapshot, so epoch numbers keep rising across restarts. The boot
	// plan publishes as ResumeEpoch+1.
	ResumeEpoch uint64
}

// Engine owns the daemon's state: the reports ingested since the last
// round, the per-cache feature store, the maintenance rounds, and the
// published epoch.
type Engine struct {
	cfg    Config
	dim    int
	sample *simrand.Source // the rounds' cache-sampling stream

	// ingestMu guards the reports merged since the last round. Tick takes
	// the whole map with one swap, so writers never wait on a round.
	ingestMu    sync.Mutex
	pending     map[int]CacheStat
	statReports int64 // reports accepted since boot

	// tickMu serializes Tick, so epochs publish in round order. The
	// feature store is read and written only inside a round.
	tickMu   sync.Mutex
	features map[int]cluster.Vector

	epoch atomic.Pointer[Epoch]

	healthMu       sync.Mutex
	rounds         int
	requests       int64 // cumulative ingested request count
	reported       int   // caches with an ingested feature vector
	consecFailures int
	lastErr        error
	lastErrRound   int
	lastOK         time.Time
	persistErr     error

	ticks, tickErrors, epochs, persistErrors *obs.Counter
	reclusters, drifted, reassigned, skipped *obs.Counter
	epochGauge, failGauge                    *obs.Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// EffectiveMaint returns the maintainer config NewEngine runs with: Maint
// as given, or the daemon defaults when SampleFraction, DriftThreshold
// and ReclusterFraction are all zero, with a zero Interval replaced by
// one minute. Callers validate it to reject bad tuning before doing the
// work that precedes NewEngine.
func (c Config) EffectiveMaint() core.MaintainerConfig {
	mc := c.Maint
	if mc.SampleFraction == 0 && mc.DriftThreshold == 0 && mc.ReclusterFraction == 0 {
		// No tuning given: daemon defaults. A partly set config is
		// validated as given.
		mc = core.DefaultMaintainerConfig()
		mc.SampleFraction = 1 // reading ingested stats costs no probes
		mc.Interval = c.Maint.Interval
	}
	if mc.Interval == 0 {
		mc.Interval = time.Minute
	}
	return mc
}

// NewEngine builds the engine and publishes the boot plan as epoch 1.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Plan == nil {
		return nil, errors.New("serve: nil plan")
	}
	if cfg.Rand == nil {
		return nil, errors.New("serve: nil random source")
	}
	if err := checkServable(cfg.Plan); err != nil {
		return nil, err
	}
	cfg.Maint = cfg.EffectiveMaint()
	if err := cfg.Maint.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:           cfg,
		dim:           len(cfg.Plan.Points[0]),
		sample:        cfg.Rand.Split("maintainer"),
		pending:       make(map[int]CacheStat),
		features:      make(map[int]cluster.Vector),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		ticks:         cfg.Obs.Counter("serve_ticks"),
		tickErrors:    cfg.Obs.Counter("serve_tick_errors"),
		epochs:        cfg.Obs.Counter("serve_epochs_published"),
		persistErrors: cfg.Obs.Counter("serve_snapshot_errors"),
		epochGauge:    cfg.Obs.Gauge("serve_epoch"),
		failGauge:     cfg.Obs.Gauge("serve_consecutive_failures"),
		reclusters:    cfg.Obs.Counter("maintainer_reclusters"),
		drifted:       cfg.Obs.Counter("maintainer_caches_drifted"),
		reassigned:    cfg.Obs.Counter("maintainer_caches_reassigned"),
		skipped:       cfg.Obs.Counter("maintainer_caches_skipped"),
		lastOK:        time.Now(),
	}
	e.publish(cfg.Plan)
	return e, nil
}

// checkServable reports why p cannot boot an engine. The daemon overlays
// ingested landmark RTT vectors on the plan's points and re-forms from
// them with Plan.Reform, so the points must be those RTTs, one per cache,
// with the origin among the landmarks, and the plan's algorithm and θ
// must be ones formation can run.
func checkServable(p *core.Plan) error {
	if p.NumCaches() == 0 || len(p.Points) != p.NumCaches() {
		return fmt.Errorf("serve: plan has %d points for %d caches", len(p.Points), p.NumCaches())
	}
	if len(p.Features) > 0 && len(p.Features[0]) != len(p.Points[0]) {
		return errors.New("serve: embedded-representation plans are not servable (ingested RTT vectors must live in the clustered space; use a feature-vector scheme)")
	}
	if _, err := p.OriginColumn(); err != nil {
		return fmt.Errorf("serve: plan cannot re-form from ingested RTTs: %w", err)
	}
	switch p.Algorithm {
	case 0, core.AlgoKMeans, core.AlgoKMedoids:
	default:
		return fmt.Errorf("serve: plan has unknown clustering algorithm %v", p.Algorithm)
	}
	if p.Theta < 0 || math.IsNaN(p.Theta) {
		return fmt.Errorf("serve: plan has theta %v, want >= 0", p.Theta)
	}
	return nil
}

// FeatureDim returns the dimension ingested RTT vectors must have.
func (e *Engine) FeatureDim() int { return e.dim }

// Epoch returns the current published epoch (one atomic load).
func (e *Engine) Epoch() *Epoch { return e.epoch.Load() }

// Ingest validates a batch of stat reports and merges it into the
// reports pending for the next round: a cache's latest RTT vector wins
// and its request counts add up. The batch is all-or-nothing: any
// invalid record rejects the whole batch so a client bug cannot
// half-apply.
func (e *Engine) Ingest(batch []CacheStat) error {
	if len(batch) == 0 {
		return errors.New("serve: empty stats batch")
	}
	n := e.Epoch().Plan.NumCaches()
	for _, s := range batch {
		if s.Cache < 0 || s.Cache >= n {
			return fmt.Errorf("serve: cache index %d out of range [0,%d)", s.Cache, n)
		}
		if err := e.checkRTT(s); err != nil {
			return err
		}
		if s.Requests < 0 {
			return fmt.Errorf("serve: cache %d reports negative request count %d", s.Cache, s.Requests)
		}
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	for _, s := range batch {
		// Copied: the vector was validated above and published plans
		// share it, so a caller reusing its buffer must not reach either.
		s.RTTMS = slices.Clone(s.RTTMS)
		if prev, ok := e.pending[s.Cache]; ok {
			s.Requests = addRequests(prev.Requests, s.Requests)
		}
		e.pending[s.Cache] = s
	}
	e.statReports += int64(len(batch))
	return nil
}

// checkRTT checks one ingested RTT vector before it enters the
// maintenance pipeline: the plan's feature dimension, and every component
// finite and non-negative, as RTTs are by construction. Malformed input is
// rejected at the edge instead of corrupting feature vectors, drift
// detection or plan checksums downstream. The cache is named only in the
// error, so an accepted vector costs no formatting.
func (e *Engine) checkRTT(s CacheStat) error {
	switch {
	case len(s.RTTMS) == 0:
		return verify.Errorf("ingest", "cache %d rttMS is empty", s.Cache)
	case len(s.RTTMS) != e.dim:
		return verify.Errorf("ingest", "cache %d rttMS has dimension %d, want %d", s.Cache, len(s.RTTMS), e.dim)
	}
	for j, x := range s.RTTMS {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return verify.Errorf("ingest", "cache %d rttMS[%d] is %v", s.Cache, j, x)
		}
		if x < 0 {
			return verify.Errorf("ingest", "cache %d rttMS[%d] is negative: %v", s.Cache, j, x)
		}
	}
	return nil
}

// Assign returns the group of cache i under the current epoch.
func (e *Engine) Assign(cache int) (group int, ep *Epoch, err error) {
	ep = e.Epoch()
	g, err := ep.Plan.GroupOf(topology.CacheIndex(cache))
	if err != nil {
		return 0, ep, err
	}
	return g, ep, nil
}

// measure is the rounds' FeatureSource: the freshest ingested RTT vector
// for the cache, or an error (→ the round skips and counts it) when the
// cache has not reported yet.
func (e *Engine) measure(i topology.CacheIndex) (cluster.Vector, error) {
	fv, ok := e.features[int(i)]
	if !ok {
		return nil, fmt.Errorf("serve: no stats reported for cache %d", i)
	}
	return fv, nil
}

// reform is the default full re-formation: Plan.Reform of cur over the
// current feature vectors (cur's points overlaid with everything ingested
// so far), so the daemon re-forms with the plan's own scheme, θ,
// algorithm and group count, exactly as batch formation clusters. It
// runs inside a round, the only place the feature store is touched.
func (e *Engine) reform(cur *core.Plan) (*core.Plan, error) {
	points := cluster.NewMatrix(cur.NumCaches(), e.dim)
	for c, v := range cur.Points { // overlay by index walk: deterministic
		fv, ingested := e.features[c]
		if ingested {
			v = fv
		}
		if len(v) != e.dim {
			return nil, fmt.Errorf("serve: cache %d has %d features, want %d", c, len(v), e.dim)
		}
		row := points.Row(c)
		copy(row, v)
		if ingested {
			// Share the plan's row, so one copy of each vector stays live
			// rather than two. Neither side ever writes a stored vector.
			e.features[c] = row
		}
	}
	return cur.Reform(points, cur.NumGroups(), e.cfg.Rand.Split("recluster"))
}

// Tick runs one aggregation + maintenance round: take the reports
// ingested since the last round, fold the freshest vectors into the
// feature store, and run core.MaintainRound over the serving plan. On
// success the (possibly new) plan is published as a fresh epoch and
// persisted; on failure the last good epoch keeps serving and the failure
// is surfaced through Health and the serve_tick_errors counter.
func (e *Engine) Tick() (core.MaintainerEvent, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.ticks.Inc()
	requests := e.drain()

	cur := e.Epoch().Plan
	recluster := e.cfg.Recluster
	if recluster == nil {
		recluster = func() (*core.Plan, error) { return e.reform(cur) }
	}
	next, ev, err := core.MaintainRound(cur, e.measure, recluster, e.cfg.Maint, e.sample)
	ev.Round = e.rounds + 1 // rounds is written only here, under tickMu
	e.drifted.Add(int64(len(ev.Drifted)))
	e.reassigned.Add(int64(len(ev.Reassigned)))
	e.skipped.Add(int64(ev.Skipped))
	if ev.Reclustered {
		e.reclusters.Inc()
	}

	e.healthMu.Lock()
	e.rounds = ev.Round
	e.requests = addRequests(e.requests, requests)
	e.reported = len(e.features)
	if err != nil {
		e.consecFailures++
		e.lastErr = err
		e.lastErrRound = ev.Round
		e.tickErrors.Inc()
	} else {
		e.consecFailures = 0
		e.lastOK = time.Now()
	}
	e.failGauge.Set(float64(e.consecFailures))
	e.healthMu.Unlock()

	if err != nil {
		return ev, err
	}
	if next != cur {
		e.publish(next)
	}
	return ev, nil
}

// drain takes the reports ingested since the last round with one swap
// under ingestMu, folds their RTT vectors into the feature store, and
// returns their summed request count.
func (e *Engine) drain() int64 {
	fresh := make(map[int]CacheStat)
	e.ingestMu.Lock()
	window := e.pending
	e.pending = fresh
	e.ingestMu.Unlock()

	caches := make([]int, 0, len(window))
	for c := range window { // collect-then-sort: order-independent
		caches = append(caches, c)
	}
	sort.Ints(caches)
	var requests int64
	for _, c := range caches {
		s := window[c]
		e.features[c] = s.RTTMS
		requests = addRequests(requests, s.Requests)
	}
	return requests
}

// publish installs plan as the next epoch and persists it if configured.
// The boot plan publishes as ResumeEpoch+1.
func (e *Engine) publish(plan *core.Plan) {
	seq := e.cfg.ResumeEpoch + 1
	if prev := e.Epoch(); prev != nil {
		seq = prev.Seq + 1
	}
	ep := &Epoch{
		Seq:      seq,
		Plan:     plan,
		Checksum: plan.Checksum(),
		Updated:  time.Now(),
	}
	e.epoch.Store(ep)
	e.epochs.Inc()
	e.epochGauge.Set(float64(ep.Seq))
	if e.cfg.SnapshotPath == "" {
		return
	}
	err := SaveSnapshot(e.cfg.SnapshotPath, ep)
	e.healthMu.Lock()
	e.persistErr = err
	e.healthMu.Unlock()
	if err != nil {
		e.persistErrors.Inc()
	}
}

// Persist writes the current epoch to the configured snapshot path (used
// for persist-on-shutdown; a no-op without a snapshot path).
func (e *Engine) Persist() error {
	if e.cfg.SnapshotPath == "" {
		return nil
	}
	return SaveSnapshot(e.cfg.SnapshotPath, e.Epoch())
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok" (fresh plan), "degraded" (re-formation failing,
	// serving the last good plan), or "down" (no plan).
	Status string `json:"status"`
	// Epoch and PlanChecksum identify the serving plan.
	Epoch        uint64 `json:"epoch"`
	PlanChecksum string `json:"planChecksum"`
	// UpdatedUnix is when the serving epoch was published.
	UpdatedUnix int64 `json:"updatedUnix"`
	// Rounds counts maintenance rounds since boot.
	Rounds int `json:"rounds"`
	// ConsecutiveFailures counts failed rounds since the last success; a
	// non-zero value is what "degraded" means.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	// LastError and LastErrorRound describe the most recent round failure.
	LastError      string `json:"lastError,omitempty"`
	LastErrorRound int    `json:"lastErrorRound,omitempty"`
	// LastSuccessUnix is when a round last completed successfully.
	LastSuccessUnix int64 `json:"lastSuccessUnix"`
	// PersistError is the most recent snapshot-write failure, if the last
	// write failed (plans keep serving regardless).
	PersistError string `json:"persistError,omitempty"`
	// StatReports counts ingested reports since boot; IngestedRequests
	// sums their request counters.
	StatReports       int64 `json:"statReports"`
	IngestedRequests  int64 `json:"ingestedRequests"`
	ReportedCaches    int   `json:"reportedCaches"`
	ServingStalePlans bool  `json:"servingStale"`
}

// Health snapshots the degradation state.
func (e *Engine) Health() Health {
	h := Health{Status: "down"}
	if ep := e.Epoch(); ep != nil {
		h.Status = "ok"
		h.Epoch = ep.Seq
		h.PlanChecksum = checksumHex(ep.Checksum)
		h.UpdatedUnix = ep.Updated.Unix()
	}
	e.healthMu.Lock()
	h.Rounds = e.rounds
	h.ConsecutiveFailures = e.consecFailures
	if e.lastErr != nil {
		h.LastError = e.lastErr.Error()
		h.LastErrorRound = e.lastErrRound
	}
	h.LastSuccessUnix = e.lastOK.Unix()
	if e.persistErr != nil {
		h.PersistError = e.persistErr.Error()
	}
	h.IngestedRequests = e.requests
	h.ReportedCaches = e.reported
	e.healthMu.Unlock()
	e.ingestMu.Lock()
	h.StatReports = e.statReports
	e.ingestMu.Unlock()
	if h.Status == "ok" && h.ConsecutiveFailures > 0 {
		h.Status = "degraded"
		h.ServingStalePlans = true
	}
	return h
}

// Start launches the daemon's only maintenance clock: a background loop
// that calls Tick every Maint.Interval.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		go func() {
			defer close(e.done)
			ticker := time.NewTicker(e.cfg.Maint.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-ticker.C:
					//ecglint:allow errdrop Tick failures surface via Health (lastErr, consecFailures) and the tick-errors counter
					_, _ = e.Tick()
				}
			}
		}()
	})
}

// Stop halts the tick loop and waits for it; idempotent, safe without
// Start.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.startOnce.Do(func() { close(e.done) })
	<-e.done
}
