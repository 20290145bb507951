// Package serve is the long-running group-formation service behind
// cmd/groupformd: it ingests live per-cache request/RTT statistics over
// HTTP/JSON (double-buffered, so the write path never blocks on
// aggregation), maintains the group plan incrementally through
// core.Maintainer, and serves plan/assignment queries at high RPS from
// immutable copy-on-write plan epochs (one atomic pointer load per
// query, no locks).
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
	// Maint tunes the maintenance loop (zero value: defaults with
	// SampleFraction 1, since reading ingested stats is free).
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

// Engine owns the daemon's state: the double-buffered stat sink, the
// per-cache feature store, the maintainer, and the published epoch.
type Engine struct {
	cfg   Config
	stats *StatsBuffer
	maint *core.Maintainer
	dim   int

	featMu   sync.Mutex
	features map[int]cluster.Vector
	requests int64 // cumulative ingested request count

	epoch atomic.Pointer[Epoch]
	seq   atomic.Uint64

	healthMu       sync.Mutex
	rounds         int
	consecFailures int
	lastErr        error
	lastErrRound   int
	lastOK         time.Time
	persistErr     error

	ticks, tickErrors, epochs, persistErrors *obs.Counter
	epochGauge, failGauge                    *obs.Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
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
	if cfg.Maint.SampleFraction == 0 { // zero value: daemon defaults
		m := core.DefaultMaintainerConfig()
		m.SampleFraction = 1 // reading ingested stats costs no probes
		m.Interval = cfg.Maint.Interval
		cfg.Maint = m
	}
	cfg.Maint.Obs = cfg.Obs
	e := &Engine{
		cfg:           cfg,
		stats:         NewStatsBuffer(),
		dim:           len(cfg.Plan.Points[0]),
		features:      make(map[int]cluster.Vector),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		ticks:         cfg.Obs.Counter("serve_ticks"),
		tickErrors:    cfg.Obs.Counter("serve_tick_errors"),
		epochs:        cfg.Obs.Counter("serve_epochs_published"),
		persistErrors: cfg.Obs.Counter("serve_snapshot_errors"),
		epochGauge:    cfg.Obs.Gauge("serve_epoch"),
		failGauge:     cfg.Obs.Gauge("serve_consecutive_failures"),
	}
	recluster := cfg.Recluster
	if recluster == nil {
		recluster = e.reclusterFromStats
	}
	m, err := core.NewMaintainer(cfg.Plan, e.measure, recluster, cfg.Maint, cfg.Rand.Split("maintainer"))
	if err != nil {
		return nil, err
	}
	e.maint = m
	e.lastOK = time.Now()
	e.seq.Store(cfg.ResumeEpoch)
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
	if p.Theta < 0 {
		return fmt.Errorf("serve: plan has theta %v, want >= 0", p.Theta)
	}
	return nil
}

// FeatureDim returns the dimension ingested RTT vectors must have.
func (e *Engine) FeatureDim() int { return e.dim }

// Epoch returns the current published epoch (one atomic load).
func (e *Engine) Epoch() *Epoch { return e.epoch.Load() }

// Stats returns the ingest sink (the HTTP layer records into it).
func (e *Engine) Stats() *StatsBuffer { return e.stats }

// Ingest validates and records a batch of stat reports. The batch is
// all-or-nothing: any invalid record rejects the whole batch so a client
// bug cannot half-apply.
func (e *Engine) Ingest(batch []CacheStat) error {
	if len(batch) == 0 {
		return errors.New("serve: empty stats batch")
	}
	n := e.Epoch().Plan.NumCaches()
	for _, s := range batch {
		if s.Cache < 0 || s.Cache >= n {
			return fmt.Errorf("serve: cache index %d out of range [0,%d)", s.Cache, n)
		}
		if err := verify.StatVector(fmt.Sprintf("cache %d rttMS", s.Cache), s.RTTMS, e.dim); err != nil {
			return err
		}
		if s.Requests < 0 {
			return fmt.Errorf("serve: cache %d reports negative request count %d", s.Cache, s.Requests)
		}
	}
	for _, s := range batch {
		e.stats.Record(s)
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

// measure is the maintainer's FeatureSource: the freshest ingested RTT
// vector for the cache, or an error (→ the round skips and counts it)
// when the cache has not reported yet.
func (e *Engine) measure(i topology.CacheIndex) (cluster.Vector, error) {
	e.featMu.Lock()
	defer e.featMu.Unlock()
	fv, ok := e.features[int(i)]
	if !ok {
		return nil, fmt.Errorf("serve: no stats reported for cache %d", i)
	}
	return fv, nil
}

// reclusterFromStats is the default full re-formation: Plan.Reform over
// the current feature vectors (plan features overlaid with everything
// ingested so far), so the daemon re-forms with the plan's own scheme,
// θ, algorithm and group count, exactly as batch formation clusters. It
// runs inside a maintenance round, so the feature store is quiescent
// apart from concurrent ingest into the *other* buffer.
func (e *Engine) reclusterFromStats() (*core.Plan, error) {
	cur := e.maint.Plan()
	points := cluster.NewMatrix(cur.NumCaches(), e.dim)
	e.featMu.Lock()
	for c, v := range cur.Points { // overlay by index walk: deterministic
		fv, ingested := e.features[c]
		if ingested {
			v = fv
		}
		if len(v) != e.dim {
			e.featMu.Unlock()
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
	e.featMu.Unlock()
	return cur.Reform(points, e.cfg.Rand.Split("recluster"))
}

// Tick runs one aggregation + maintenance round: drain the ingest
// buffer, fold the freshest vectors into the feature store, and let the
// maintainer reconcile the plan. On success the (possibly new) plan is
// published as a fresh epoch and persisted; on failure the last good
// epoch keeps serving and the failure is surfaced through Health and the
// serve_tick_errors counter.
func (e *Engine) Tick() (core.MaintainerEvent, error) {
	e.ticks.Inc()
	window, _ := e.stats.Swap()
	if len(window) > 0 {
		caches := make([]int, 0, len(window))
		for c := range window { // collect-then-sort: order-independent
			caches = append(caches, c)
		}
		sort.Ints(caches)
		e.featMu.Lock()
		for _, c := range caches {
			s := window[c]
			// Copied: published plans share these vectors, so a caller
			// reusing its Ingest buffer must not reach an epoch.
			e.features[c] = cluster.Vector(s.RTTMS).Clone()
			e.requests = addRequests(e.requests, s.Requests)
		}
		e.featMu.Unlock()
	}

	ev, err := e.maint.RunOnce()

	e.healthMu.Lock()
	e.rounds++
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
	if plan := e.maint.Plan(); plan != e.Epoch().Plan {
		e.publish(plan)
	}
	return ev, nil
}

// publish installs plan as the next epoch and persists it if configured.
func (e *Engine) publish(plan *core.Plan) {
	ep := &Epoch{
		Seq:      e.seq.Add(1),
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
	h := Health{Status: "down", StatReports: e.stats.Total()}
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
	e.healthMu.Unlock()
	e.featMu.Lock()
	h.IngestedRequests = e.requests
	h.ReportedCaches = len(e.features)
	e.featMu.Unlock()
	if h.Status == "ok" && h.ConsecutiveFailures > 0 {
		h.Status = "degraded"
		h.ServingStalePlans = true
	}
	return h
}

// Start launches the background tick loop at the maintenance interval.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		interval := e.cfg.Maint.Interval
		if interval <= 0 {
			interval = time.Minute
		}
		go func() {
			defer close(e.done)
			ticker := time.NewTicker(interval)
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
