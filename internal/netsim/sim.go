package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
	"edgecachegroups/internal/workload"
)

// Config tunes the simulator's latency and cache model.
type Config struct {
	// LocalHitMS is the service time of a fresh local hit.
	LocalHitMS float64
	// OriginProcessingMS is the origin server's per-request processing time.
	OriginProcessingMS float64
	// RTTsPerTransfer scales RTT into a document transfer cost (TCP setup
	// plus data round trips).
	RTTsPerTransfer float64
	// PerKBMS adds a size-proportional transfer cost.
	PerKBMS float64
	// GroupLookupFactor scales the cooperative lookup overhead: a miss at
	// cache i costs GroupLookupFactor × (mean RTT from i to its live group
	// peers) before the document is served from a peer or the origin.
	GroupLookupFactor float64
	// CacheCapacityKB is the per-cache storage budget.
	CacheCapacityKB float64
	// CachePolicy selects the replacement policy (zero = utility-based,
	// the paper's setting; cache.PolicyLRU gives the classic baseline).
	CachePolicy cache.Policy
	// BeaconsPerGroup switches cooperative lookups to the Cache Clouds
	// beacon-point mechanism: each group designates this many beacon
	// members; each document hashes to one responsible beacon, which the
	// requesting cache queries before fetching from a holder or the
	// origin. Zero keeps the default multicast-style model.
	BeaconsPerGroup int
	// PushInvalidation makes origin updates actively invalidate cached
	// copies through the groups ("collaborative document freshness
	// maintenance"): the origin sends one invalidation per group holding
	// the document and the group fans it out internally. The report
	// records the origin's message savings versus per-cache push.
	PushInvalidation bool
	// TraceFn, when set, is invoked for every recorded request with its
	// routing outcome — an observability hook for custom analyses. Calls
	// happen on Run's goroutine in global event order regardless of the
	// Shards setting (traces are buffered per shard and replayed during
	// the deterministic merge). It must not retain the trace beyond the
	// call.
	TraceFn func(RequestTrace)
	// WarmupSec excludes the initial cold-cache phase from all recorded
	// statistics — request latencies AND update/invalidation counters use
	// the same cutoff, so overhead-vs-latency comparisons are measured
	// over one window (events still execute).
	WarmupSec float64
	// Shards partitions the simulation by cache group for parallel
	// execution: groups are dealt round-robin onto this many shards, each
	// with its own request cursor, completion heap, scratch state, and
	// report fragment, and the shards run concurrently inside conservative
	// virtual-time windows bounded by origin updates (the only cross-group
	// events). A
	// deterministic ordered merge reassembles the final Report, so the
	// Report's Checksum is bit-identical to the serial run at any shard
	// count — the knob trades goroutines for wall-clock time only. 0 or 1
	// runs single-shard; values above the group count are clamped.
	Shards int
	// Verify enables the invariant-checking layer: Run audits the finished
	// report's conservation laws (outcome counts sum to recorded requests,
	// origin volume consistent with origin-served requests, bounded
	// invalidation counters) and fails loudly instead of returning silently
	// inconsistent numbers.
	Verify bool
	// Obs is the optional observability sink: request latencies and
	// outcomes feed a histogram and counters during the deterministic
	// merge, window barriers and per-shard stall are recorded in virtual
	// time, cache hit/miss/eviction counters are aggregated after the run,
	// and evictions emit trace events through the cache eviction hook. Nil
	// disables instrumentation; enabling it never changes the Report (see
	// internal/obs — every write is a side channel, and the simulator
	// never reads the wall clock for it).
	Obs *obs.Obs
	// FailedCaches lists caches that are down for the whole run: they serve
	// no cooperative lookups and their own clients fail over to the origin.
	FailedCaches []topology.CacheIndex
}

// DefaultConfig returns the latency model used by the experiments.
func DefaultConfig() Config {
	return Config{
		LocalHitMS:         1,
		OriginProcessingMS: 5,
		RTTsPerTransfer:    2,
		PerKBMS:            0.02,
		GroupLookupFactor:  1,
		CacheCapacityKB:    600,
		WarmupSec:          0,
	}
}

// Validate reports whether the config is usable for a network of numCaches
// caches.
func (c Config) Validate(numCaches int) error {
	switch {
	case c.LocalHitMS < 0:
		return fmt.Errorf("netsim: LocalHitMS must be >= 0, got %v", c.LocalHitMS)
	case c.OriginProcessingMS < 0:
		return fmt.Errorf("netsim: OriginProcessingMS must be >= 0, got %v", c.OriginProcessingMS)
	case c.RTTsPerTransfer <= 0:
		return fmt.Errorf("netsim: RTTsPerTransfer must be > 0, got %v", c.RTTsPerTransfer)
	case c.PerKBMS < 0:
		return fmt.Errorf("netsim: PerKBMS must be >= 0, got %v", c.PerKBMS)
	case c.GroupLookupFactor < 0:
		return fmt.Errorf("netsim: GroupLookupFactor must be >= 0, got %v", c.GroupLookupFactor)
	case c.CacheCapacityKB <= 0:
		return fmt.Errorf("netsim: CacheCapacityKB must be > 0, got %v", c.CacheCapacityKB)
	case c.WarmupSec < 0:
		return fmt.Errorf("netsim: WarmupSec must be >= 0, got %v", c.WarmupSec)
	case c.Shards < 0:
		return fmt.Errorf("netsim: Shards must be >= 0, got %d", c.Shards)
	}
	switch c.CachePolicy {
	case 0, cache.PolicyUtility, cache.PolicyLRU:
	default:
		return fmt.Errorf("netsim: unknown cache policy %v", c.CachePolicy)
	}
	if c.BeaconsPerGroup < 0 {
		return fmt.Errorf("netsim: BeaconsPerGroup must be >= 0, got %d", c.BeaconsPerGroup)
	}
	for _, f := range c.FailedCaches {
		if int(f) < 0 || int(f) >= numCaches {
			return fmt.Errorf("netsim: failed cache %d out of range [0,%d)", f, numCaches)
		}
	}
	return nil
}

// Simulator executes a cooperative edge cache network run. Build one with
// New, then call Run exactly once.
type Simulator struct {
	nw      *topology.Network
	catalog *workload.Catalog
	cfg     Config

	caches    []*cache.EdgeCache
	peers     [][]topology.CacheIndex // live group peers of each cache (excl. self)
	lookup    []float64               // cooperative lookup overhead per cache
	failed    []bool
	version   []int64 // current document versions
	groupOf   []int   // group ID of each cache
	numGroups int
	beacons   [][]topology.CacheIndex // per-group beacon members (beacon mode)

	ran               bool
	groupHolderCounts []int // reused per-update per-group holder tally
	touchedGroups     []int // reused per-update list of groups with holders
	stages            verify.Stages

	// Observability handles, hoisted at New so the hot paths pay one nil
	// check when cfg.Obs is nil. All durations below are virtual time —
	// this package never reads the wall clock (ecglint detclock).
	obsLatency    *obs.Histogram // recorded request latency (ms)
	obsLocal      *obs.Counter   // per-outcome recorded request counts
	obsGroup      *obs.Counter
	obsOrigin     *obs.Counter
	obsFailover   *obs.Counter
	obsEvictions  *obs.Counter   // cache eviction-hook firings
	obsWindows    *obs.Counter   // conservative windows with work
	obsWindowMS   *obs.Histogram // virtual span of each active window (ms)
	obsStallMS    *obs.Histogram // per-shard virtual idle time at barriers (ms)
	obsPrevBoundT float64        // previous window boundary (virtual seconds)
	obsPrevEvents int64          // total events at the previous boundary
}

// New builds a simulator for the given group partition. groups must cover
// every cache exactly once.
func New(nw *topology.Network, groups [][]topology.CacheIndex, catalog *workload.Catalog, cfg Config) (*Simulator, error) {
	if nw == nil {
		return nil, errors.New("netsim: nil network")
	}
	if catalog == nil {
		return nil, errors.New("netsim: nil catalog")
	}
	n := nw.NumCaches()
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}

	// Validate the partition.
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for g, members := range groups {
		for _, c := range members {
			if int(c) < 0 || int(c) >= n {
				return nil, fmt.Errorf("netsim: group %d references cache %d, out of range [0,%d)", g, c, n)
			}
			if groupOf[int(c)] != -1 {
				return nil, fmt.Errorf("netsim: cache %d appears in groups %d and %d", c, groupOf[int(c)], g)
			}
			groupOf[int(c)] = g
		}
	}
	for i, g := range groupOf {
		if g == -1 {
			return nil, fmt.Errorf("netsim: cache %d not assigned to any group", i)
		}
	}

	failed := make([]bool, n)
	for _, f := range cfg.FailedCaches {
		failed[int(f)] = true
	}

	s := &Simulator{
		nw:        nw,
		catalog:   catalog,
		cfg:       cfg,
		caches:    make([]*cache.EdgeCache, n),
		peers:     make([][]topology.CacheIndex, n),
		lookup:    make([]float64, n),
		failed:    failed,
		version:   make([]int64, catalog.NumDocuments()),
		groupOf:   groupOf,
		numGroups: len(groups),

		groupHolderCounts: make([]int, len(groups)),
	}

	for i := 0; i < n; i++ {
		ci := topology.CacheIndex(i)
		missPenalty := cfg.OriginProcessingMS + s.transferCost(nw.DistToOrigin(ci), catalog.MeanSizeKB())
		ec, err := cache.New(cache.Config{
			CapacityKB:    cfg.CacheCapacityKB,
			MissPenaltyMS: missPenalty,
			Policy:        cfg.CachePolicy,
		})
		if err != nil {
			return nil, fmt.Errorf("cache %d: %w", i, err)
		}
		s.caches[i] = ec
	}

	// Precompute live peers and cooperative lookup overheads. The O(g²)
	// pairwise distances of each group feed both the lookup overheads and
	// the beacon placement, so they are gathered once per group into a
	// scratch matrix shared by both consumers (previously each recomputed
	// every pair).
	if cfg.BeaconsPerGroup > 0 {
		s.beacons = make([][]topology.CacheIndex, len(groups))
	}
	maxGroup := 0
	for _, members := range groups {
		if len(members) > maxGroup {
			maxGroup = len(members)
		}
	}
	distBuf := make([]float64, maxGroup*maxGroup)
	for g, members := range groups {
		gl := len(members)
		dm := distBuf[:gl*gl]
		for a := 0; a < gl; a++ {
			dm[a*gl+a] = 0
			for b := a + 1; b < gl; b++ {
				d := nw.Dist(members[a], members[b])
				dm[a*gl+b] = d
				dm[b*gl+a] = d
			}
		}
		for ai, c := range members {
			if failed[int(c)] {
				continue
			}
			var ps []topology.CacheIndex
			var sum float64
			for bi, other := range members {
				if other == c || failed[int(other)] {
					continue
				}
				ps = append(ps, other)
				sum += dm[ai*gl+bi]
			}
			s.peers[int(c)] = ps
			if len(ps) > 0 {
				s.lookup[int(c)] = cfg.GroupLookupFactor * sum / float64(len(ps))
			}
		}
		if cfg.BeaconsPerGroup > 0 {
			s.beacons[g] = chooseBeaconsDist(members, failed, cfg.BeaconsPerGroup, dm)
		}
	}

	if cfg.Obs != nil {
		s.obsLatency = cfg.Obs.Histogram("sim_request_latency_ms")
		s.obsLocal = cfg.Obs.Counter("sim_requests_local_total")
		s.obsGroup = cfg.Obs.Counter("sim_requests_group_total")
		s.obsOrigin = cfg.Obs.Counter("sim_requests_origin_total")
		s.obsFailover = cfg.Obs.Counter("sim_requests_failover_total")
		s.obsEvictions = cfg.Obs.Counter("cache_drops_total")
		s.obsWindows = cfg.Obs.Counter("sim_windows_total")
		s.obsWindowMS = cfg.Obs.Histogram("sim_window_span_virtual_ms")
		s.obsStallMS = cfg.Obs.Histogram("sim_shard_stall_virtual_ms")
		// The eviction hook fires on shard goroutines during windows;
		// counter adds are atomic and the trace ring is mutex-guarded, so
		// both are safe there. The hook carries no clock, so eviction
		// events use TimeSec -1 ("unknown"); the Value is the document ID.
		for i, ec := range s.caches {
			ci := i
			ec.SetEvictionHook(func(doc workload.DocID) {
				s.obsEvictions.Inc()
				cfg.Obs.Emit(obs.Event{
					Kind:    obs.KindCacheEvict,
					TimeSec: -1,
					Value:   int64(doc),
					Cache:   ci,
				})
			})
		}
	}
	return s, nil
}

// chooseBeacons picks the b most central live members of a group (lowest
// total RTT to the other members) as its beacon points, mirroring Cache
// Clouds' placement of per-group lookup machinery.
func chooseBeacons(nw *topology.Network, members []topology.CacheIndex, failed []bool, b int) []topology.CacheIndex {
	gl := len(members)
	dm := make([]float64, gl*gl)
	for a := 0; a < gl; a++ {
		for bi := a + 1; bi < gl; bi++ {
			d := nw.Dist(members[a], members[bi])
			dm[a*gl+bi] = d
			dm[bi*gl+a] = d
		}
	}
	return chooseBeaconsDist(members, failed, b, dm)
}

// chooseBeaconsDist is chooseBeacons over a precomputed row-major pairwise
// distance matrix dm (len(members)² entries), so New can reuse the distances
// it already gathered for the lookup overheads.
func chooseBeaconsDist(members []topology.CacheIndex, failed []bool, b int, dm []float64) []topology.CacheIndex {
	type cand struct {
		c    topology.CacheIndex
		cost float64
	}
	gl := len(members)
	var cands []cand
	for ci, c := range members {
		if failed[int(c)] {
			continue
		}
		var sum float64
		for oi, o := range members {
			if o != c && !failed[int(o)] {
				sum += dm[ci*gl+oi]
			}
		}
		cands = append(cands, cand{c: c, cost: sum})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].c < cands[j].c
	})
	if b > len(cands) {
		b = len(cands)
	}
	out := make([]topology.CacheIndex, b)
	for i := 0; i < b; i++ {
		out[i] = cands[i].c
	}
	return out
}

// transferCost models moving a document of the given size across a path
// with the given RTT.
func (s *Simulator) transferCost(rtt, sizeKB float64) float64 {
	return rtt*s.cfg.RTTsPerTransfer + sizeKB*s.cfg.PerKBMS
}

// Run replays the request and update logs and returns the collected
// report. Run may be called only once per Simulator.
//
// Execution is partitioned by cache group into Config.Shards shards (see
// shard.go). Requests and fetch completions stay inside their shard;
// updates are coordinator events applied between conservative virtual-time
// windows, so every shard observes each update at the same virtual time.
// The per-shard report fragments are merged in global event order at the
// end, making the Report — including its Checksum — bit-identical to a
// serial run regardless of shard count.
func (s *Simulator) Run(requests []workload.Request, updates []workload.Update) (*Report, error) {
	if s.ran {
		return nil, errors.New("netsim: Run called twice")
	}
	s.ran = true

	// Shards address requests by 32-bit log index.
	if len(requests) > math.MaxInt32 {
		return nil, fmt.Errorf("netsim: %d requests exceed the %d a run can index", len(requests), math.MaxInt32)
	}
	// Event order is a total order on (time, seq) only for finite times: a
	// NaN compares false against everything and would land anywhere.
	for i, r := range requests {
		if math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 0) {
			return nil, fmt.Errorf("netsim: request %d has non-finite time %v", i, r.TimeSec)
		}
		if int(r.Cache) < 0 || int(r.Cache) >= len(s.caches) {
			return nil, fmt.Errorf("netsim: request for unknown cache %d", r.Cache)
		}
		if _, err := s.catalog.Doc(r.Doc); err != nil {
			return nil, fmt.Errorf("netsim: request: %w", err)
		}
	}
	for i, u := range updates {
		if math.IsNaN(u.TimeSec) || math.IsInf(u.TimeSec, 0) {
			return nil, fmt.Errorf("netsim: update %d has non-finite time %v", i, u.TimeSec)
		}
		if _, err := s.catalog.Doc(u.Doc); err != nil {
			return nil, fmt.Errorf("netsim: update: %w", err)
		}
	}

	shards := s.buildShards(requests, len(updates))
	updOrder := updateOrder(updates)

	stopSim := s.stages.Start("simulate")
	s.stages.Add("simulate", int64(len(requests)+len(updates)))
	s.stages.SetParallelism("simulate", len(shards))
	rep := newReport(len(s.caches), s.numGroups, s.groupOf)
	var windows int64
	for _, ui := range updOrder {
		u := updates[ui]
		w := s.runWindow(shards, u.TimeSec, int64(len(requests)+ui), false)
		windows += w
		if w > 0 {
			s.obsWindow(shards, u.TimeSec, false)
		}
		// The update applies while no shard is running, after every shard
		// has processed all earlier events and before any later one.
		s.version[int(u.Doc)]++
		// Update-side counters honor the same warmup window as the
		// request-side stats, so overhead-vs-latency comparisons are
		// measured over one window. The update itself (version bump,
		// invalidation of cached copies) always executes.
		record := u.TimeSec >= s.cfg.WarmupSec
		if record {
			rep.Updates++
		}
		if s.cfg.PushInvalidation {
			s.pushInvalidate(u.Doc, rep, record)
		}
	}
	wf := s.runWindow(shards, 0, 0, true)
	windows += wf
	if wf > 0 {
		s.obsWindow(shards, 0, true)
	}
	stopSim()

	stopMerge := s.stages.Start("sim-merge")
	s.mergeFragments(shards, rep)
	stopMerge()
	s.stages.Add("sim-windows", windows)
	for i, sh := range shards {
		s.stages.Add(fmt.Sprintf("sim-shard-%d", i), sh.events)
	}

	if s.cfg.Verify {
		stopVerify := s.stages.Start("verify")
		minKB, maxKB, err := s.docSizeBounds()
		if err == nil {
			err = rep.verifyWithBounds(int64(len(requests)), int64(len(updates)), minKB, maxKB)
		}
		stopVerify()
		if err != nil {
			return nil, fmt.Errorf("netsim: report failed verification: %w", err)
		}
	}
	s.publishObs(shards)
	return rep, nil
}

// obsWindow records the diagnostics of one completed (active) window on
// Run's goroutine, while no shard is running. Everything here is virtual
// time: the window span is the distance between update boundaries and a
// shard's stall is how long before the boundary it ran out of work — the
// conservative-parallelism cost the Shards knob pays. For the final
// (unbounded) window the latest event time stands in for the boundary
// and stalls are undefined.
func (s *Simulator) obsWindow(shards []*simShard, boundT float64, final bool) {
	if s.cfg.Obs == nil {
		return
	}
	var events int64
	var maxT float64
	for _, sh := range shards {
		events += sh.events
		if sh.lastT > maxT {
			maxT = sh.lastT
		}
	}
	t := boundT
	if final {
		t = maxT
	}
	spanMS := (t - s.obsPrevBoundT) * 1000
	if spanMS < 0 {
		spanMS = 0
	}
	s.obsWindows.Inc()
	s.obsWindowMS.Record(spanMS)
	if !final {
		for _, sh := range shards {
			if sh.events > 0 && sh.lastT <= boundT {
				s.obsStallMS.Record((boundT - sh.lastT) * 1000)
			}
		}
	}
	s.cfg.Obs.Emit(obs.Event{
		Kind:    obs.KindShardWindow,
		TimeSec: t,
		DurMS:   spanMS,
		Value:   events - s.obsPrevEvents,
		Cache:   -1,
	})
	s.obsPrevBoundT = t
	s.obsPrevEvents = events
}

// publishObs mirrors the post-run aggregates into the observability
// registry: cache counters summed across caches, per-shard event counts,
// and the verify.Stages snapshot (including the wall-clock simulate and
// merge timings measured by verify, which detclock exempts).
func (s *Simulator) publishObs(shards []*simShard) {
	o := s.cfg.Obs
	if o == nil {
		return
	}
	var st cache.Stats
	for _, ec := range s.caches {
		cs := ec.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.StaleDrops += cs.StaleDrops
		st.Evictions += cs.Evictions
		st.Inserts += cs.Inserts
	}
	o.Counter("cache_hits_total").Add(st.Hits)
	o.Counter("cache_misses_total").Add(st.Misses)
	o.Counter("cache_stale_drops_total").Add(st.StaleDrops)
	o.Counter("cache_evictions_total").Add(st.Evictions)
	o.Counter("cache_inserts_total").Add(st.Inserts)
	o.Gauge("sim_shards").Set(float64(len(shards)))
	for i, sh := range shards {
		o.Gauge(fmt.Sprintf("sim_shard_%d_events", i)).Set(float64(sh.events))
	}
	obs.PublishStages(o, s.stages.Snapshot())
}

// docSizeBounds returns the smallest and largest document size in the
// catalog, bounding the origin volume a given origin-served request count
// can legitimately produce. An explicit first-seen flag tracks whether
// minKB has been set (a plain minKB == 0 sentinel would mistake a
// zero-size document for "not yet seen"), and catalog errors propagate
// instead of silently shrinking the bounds.
func (s *Simulator) docSizeBounds() (minKB, maxKB float64, err error) {
	seen := false
	for id := 0; id < s.catalog.NumDocuments(); id++ {
		d, err := s.catalog.Doc(workload.DocID(id))
		if err != nil {
			return 0, 0, fmt.Errorf("doc size bounds: %w", err)
		}
		if !seen || d.SizeKB < minKB {
			minKB = d.SizeKB
			seen = true
		}
		if d.SizeKB > maxKB {
			maxKB = d.SizeKB
		}
	}
	return minKB, maxKB, nil
}

// Stages returns the simulator's timing/counter instrumentation, in the
// same style as the Prober's overhead counters.
func (s *Simulator) Stages() *verify.Stages { return &s.stages }

// handleRequest serves one client request and records its latency into the
// owning shard's report fragment.
func (s *Simulator) handleRequest(sh *simShard, ev event) {
	i := int(ev.cache)
	now := ev.timeSec
	record := now >= s.cfg.WarmupSec
	cur := s.version[int(ev.doc)]
	//ecglint:allow errdrop every DocID is validated during Run setup; Doc cannot fail here
	d, _ := s.catalog.Doc(ev.doc)

	// A failed cache's clients fail over directly to the origin.
	if s.failed[i] {
		lat := s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
		if record {
			sh.note(ev, outcomeFailover, lat, d.SizeKB, -1)
		}
		return
	}

	// 1. Local lookup.
	if s.caches[i].Lookup(ev.doc, cur, now) {
		if record {
			sh.note(ev, outcomeLocal, s.cfg.LocalHitMS, 0, -1)
		}
		return
	}

	if s.cfg.BeaconsPerGroup > 0 {
		s.handleRequestBeacon(sh, ev, d, cur, now, record)
		return
	}

	// 2. Cooperative lookup within the group. On a hit, the group's
	// lookup machinery (beacon/directory in Cache Clouds terms) returns
	// one fresh holder — not necessarily the nearest — so the expected
	// transfer distance tracks the group's average pairwise RTT, which is
	// exactly the paper's group interaction cost. The holder choice is a
	// deterministic hash over (document, requester) for reproducibility.
	// On a group-wide miss, the cache waits out its peers' negative
	// answers (the precomputed lookup[i] overhead) before escalating to
	// the origin.
	lat := s.cfg.LocalHitMS
	if len(s.peers[i]) > 0 {
		holders := sh.holders[:0]
		for _, p := range s.peers[i] {
			if s.caches[int(p)].Contains(ev.doc, cur) {
				holders = append(holders, p)
			}
		}
		holder := topology.CacheIndex(-1)
		if len(holders) > 0 {
			h := (uint64(ev.doc)*2654435761 + uint64(ev.cache)*40503) % uint64(len(holders))
			holder = holders[h]
		}
		// The scratch goes back to the shard only after its last read;
		// resetting before the holder selection aliased the live entries
		// and worked by accident alone.
		sh.holders = holders[:0]
		if holder >= 0 {
			lat += s.transferCost(s.nw.Dist(ev.cache, holder), d.SizeKB)
			if record {
				sh.note(ev, outcomeGroup, lat, 0, holder)
			}
			s.scheduleInsert(sh, ev.cache, ev.doc, cur, now, lat)
			return
		}
		lat += s.lookup[i]
	}

	// 3. Miss everywhere: fetch from the origin server.
	lat += s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
	if record {
		sh.note(ev, outcomeOrigin, lat, d.SizeKB, -1)
	}
	s.scheduleInsert(sh, ev.cache, ev.doc, cur, now, lat)
}

// handleRequestBeacon serves a local miss through the Cache Clouds beacon
// mechanism: the requesting cache queries the beacon responsible for the
// document (hash-partitioned within the group); the beacon either directs
// it to the nearest fresh holder or reports a group-wide miss, after which
// the cache fetches from the origin.
func (s *Simulator) handleRequestBeacon(sh *simShard, ev event, d workload.Document, cur int64, now float64, record bool) {
	i := int(ev.cache)
	lat := s.cfg.LocalHitMS
	// A requester with zero live peers pays no cooperative overhead in
	// either mode: the multicast path only charges lookup[i] when peers
	// exist, and the beacon directory round trip follows the same rule —
	// with nobody to ask about, there is no directory to consult.
	if len(s.peers[i]) > 0 {
		beacons := s.beacons[s.groupOf[i]]
		if len(beacons) > 0 {
			beacon := beacons[uint64(ev.doc)%uint64(len(beacons))]
			// Directory round trip (skipped when the requester is the beacon).
			if beacon != ev.cache {
				lat += s.cfg.GroupLookupFactor * s.nw.Dist(ev.cache, beacon)
			}
			best := -1
			var bestRTT float64
			for _, p := range s.peers[i] {
				if !s.caches[int(p)].Contains(ev.doc, cur) {
					continue
				}
				if rtt := s.nw.Dist(ev.cache, p); best < 0 || rtt < bestRTT {
					best, bestRTT = int(p), rtt
				}
			}
			if best >= 0 {
				lat += s.transferCost(bestRTT, d.SizeKB)
				if record {
					sh.note(ev, outcomeGroup, lat, 0, topology.CacheIndex(best))
				}
				s.scheduleInsert(sh, ev.cache, ev.doc, cur, now, lat)
				return
			}
		}
	}
	lat += s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
	if record {
		sh.note(ev, outcomeOrigin, lat, d.SizeKB, -1)
	}
	s.scheduleInsert(sh, ev.cache, ev.doc, cur, now, lat)
}

// scheduleInsert queues the arrival of a fetched document copy on the
// requesting cache's shard.
func (s *Simulator) scheduleInsert(sh *simShard, c topology.CacheIndex, doc workload.DocID, version int64, now, latencyMS float64) {
	ev := event{
		timeSec: now + latencyMS/1000,
		seq:     sh.seq,
		cache:   c,
		doc:     doc,
		version: version,
	}
	sh.seq++
	sh.queue.push(ev)
}

// handleFetchComplete admits a fetched document if it is still current.
func (s *Simulator) handleFetchComplete(ev event) {
	if s.version[int(ev.doc)] != ev.version {
		return // updated while in flight; don't cache a stale copy
	}
	//ecglint:allow errdrop every DocID is validated during Run setup; Doc cannot fail here
	d, _ := s.catalog.Doc(ev.doc)
	// Insert errors (document larger than the whole cache) deliberately
	// degrade to "not cached": the request was already served.
	//ecglint:allow errdrop oversized-document insert degrades to not-cached by design; the request was already served
	_ = s.caches[int(ev.cache)].Insert(d, ev.version, ev.timeSec)
}

// pushInvalidate actively drops every cached copy of doc and accounts for
// the invalidation traffic: one origin message per group holding the
// document, plus intra-group forwards to the remaining holders. Without
// groups the origin would message every holder directly. The counters are
// recorded only when record is true (post-warmup); the invalidation itself
// always happens.
func (s *Simulator) pushInvalidate(doc workload.DocID, rep *Report, record bool) {
	// Per-group tallies live in reused scratch (counts indexed by group,
	// plus the list of touched groups to zero afterwards) instead of a
	// freshly allocated map per update.
	counts := s.groupHolderCounts
	touched := s.touchedGroups[:0]
	for i, ec := range s.caches {
		if ec.Invalidate(doc) {
			g := s.groupOf[i]
			if counts[g] == 0 {
				touched = append(touched, g)
			}
			counts[g]++
		}
	}
	for _, g := range touched {
		if record {
			rep.InvalidationsOrigin++
			rep.InvalidationsForwarded += int64(counts[g] - 1)
		}
		counts[g] = 0
	}
	s.touchedGroups = touched[:0]
}

// CacheStats exposes the per-cache counters after a run, for diagnostics
// and tests.
func (s *Simulator) CacheStats(i topology.CacheIndex) (cache.Stats, error) {
	if int(i) < 0 || int(i) >= len(s.caches) {
		return cache.Stats{}, fmt.Errorf("netsim: cache %d out of range", i)
	}
	return s.caches[int(i)].Stats(), nil
}
