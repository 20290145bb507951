package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/topology"
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
	// happen on Run's goroutine in global event order. It must not retain
	// the trace beyond the call.
	TraceFn func(RequestTrace)
	// WarmupSec excludes the initial cold-cache phase from all recorded
	// statistics — request latencies AND update/invalidation counters use
	// the same cutoff, so overhead-vs-latency comparisons are measured
	// over one window (events still execute).
	WarmupSec float64
	// Verify enables the invariant-checking layer: Run audits the finished
	// report's conservation laws (outcome counts sum to recorded requests,
	// origin volume consistent with origin-served requests, bounded
	// invalidation counters) and fails loudly instead of returning silently
	// inconsistent numbers.
	Verify bool
	// Obs is the optional observability sink: request latencies and
	// outcomes feed a histogram and counters in event order, cache
	// hit/miss/eviction counters are aggregated after the run, and
	// evictions emit trace events through the cache eviction hook, and
	// Run times its loop and report check as the simulate and
	// verify-report spans. Nil disables instrumentation; enabling it never
	// changes the Report (see internal/obs — every write is a side
	// channel, and only obs reads the wall clock for it).
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
	// NaN slips through every ordered comparison below, and an infinite
	// cost or budget poisons the latency sums, so non-finite values are
	// rejected first.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"LocalHitMS", c.LocalHitMS},
		{"OriginProcessingMS", c.OriginProcessingMS},
		{"RTTsPerTransfer", c.RTTsPerTransfer},
		{"PerKBMS", c.PerKBMS},
		{"GroupLookupFactor", c.GroupLookupFactor},
		{"CacheCapacityKB", c.CacheCapacityKB},
		{"WarmupSec", c.WarmupSec},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("netsim: %s must be finite, got %v", f.name, f.v)
		}
	}
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

	// Run state of the event loop (see loop.go). Requests are read in
	// place through order and the cursor next; only pending fetch
	// completions go on the heap.
	requests []workload.Request    // the request log, read-only
	order    []int32               // log indices in (TimeSec, index) order
	next     int                   // cursor: order[next] is the next request
	queue    eventQueue            // pending fetch completions
	seq      int64                 // next fetch-completion sequence number
	holders  []topology.CacheIndex // holder-scan scratch, reused per request
	events   int64                 // events processed (diagnostics)
	rep      *Report               // the report being recorded

	// Observability handles, hoisted at New so the hot paths pay one nil
	// check when cfg.Obs is nil. All durations below are virtual time —
	// this package never reads the wall clock (ecglint detclock).
	obsLatency   *obs.Histogram // recorded request latency (ms)
	obsLocal     *obs.Counter   // per-outcome recorded request counts
	obsGroup     *obs.Counter
	obsOrigin    *obs.Counter
	obsFailover  *obs.Counter
	obsEvictions *obs.Counter // cache eviction-hook firings
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
		// The eviction hook fires on Run's goroutine inside the event
		// loop. It carries no clock, so eviction events use TimeSec -1
		// ("unknown"); the Value is the document ID.
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
// One event loop (see loop.go) processes requests, origin updates and fetch
// completions in global (timeSec, seq) order, and each request's outcome is
// recorded into the Report as it is served, so the Report — including its
// Checksum — depends only on the logs and the config.
func (s *Simulator) Run(requests []workload.Request, updates []workload.Update) (*Report, error) {
	if s.ran {
		return nil, errors.New("netsim: Run called twice")
	}
	s.ran = true

	// The event loop addresses both logs by 32-bit index.
	if len(requests) > math.MaxInt32 || len(updates) > math.MaxInt32 {
		return nil, fmt.Errorf("netsim: %d requests and %d updates exceed the %d a run can index per log",
			len(requests), len(updates), math.MaxInt32)
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

	s.rep = newReport(len(s.caches), s.numGroups, s.groupOf)
	spanSim := s.cfg.Obs.StartSpan("simulate")
	s.loop(requests, updates)
	spanSim()

	rep := s.rep
	if s.cfg.Verify {
		spanVerify := s.cfg.Obs.StartSpan("verify-report")
		minKB, maxKB, err := s.docSizeBounds()
		if err == nil {
			err = rep.verifyWithBounds(int64(len(requests)), int64(len(updates)), minKB, maxKB)
		}
		spanVerify()
		if err != nil {
			return nil, fmt.Errorf("netsim: report failed verification: %w", err)
		}
	}
	s.publishObs()
	return rep, nil
}

// publishObs mirrors the post-run aggregates into the observability
// registry: cache counters summed across caches and the event count.
func (s *Simulator) publishObs() {
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
	o.Gauge("sim_events").Set(float64(s.events))
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

// StageRecord is one record of the Stages shim: a name and a work count.
type StageRecord struct {
	Name  string
	Items int64
}

// Stages is a read-only view of the last Run's event count, kept only
// because perfbench sums the Items of records named sim-shard-* into
// netsim.events. Stage timing lives in obs spans (SimConfig.Obs); the next
// benchmark change deletes this shim along with its one reader.
type Stages struct{ events int64 }

// Snapshot returns the single sim-shard-0 record carrying the event count.
func (st Stages) Snapshot() []StageRecord {
	return []StageRecord{{Name: "sim-shard-0", Items: st.events}}
}

// Stages returns the event-count shim described on the Stages type.
func (s *Simulator) Stages() Stages { return Stages{events: s.events} }

// handleRequest serves one client request and records its outcome.
func (s *Simulator) handleRequest(ev event) {
	i := int(ev.cache)
	now := ev.timeSec
	cur := s.version[int(ev.doc)]
	//ecglint:allow errdrop every DocID is validated during Run setup; Doc cannot fail here
	d, _ := s.catalog.Doc(ev.doc)

	// A failed cache's clients fail over directly to the origin.
	if s.failed[i] {
		lat := s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
		s.recordOutcome(ev, outcomeFailover, lat, d.SizeKB, -1)
		return
	}

	// 1. Local lookup.
	if s.caches[i].Lookup(ev.doc, cur, now) {
		s.recordOutcome(ev, outcomeLocal, s.cfg.LocalHitMS, 0, -1)
		return
	}

	if s.cfg.BeaconsPerGroup > 0 {
		s.handleRequestBeacon(ev, d, cur, now)
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
		holders := s.holders[:0]
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
		// The scratch is handed back only after its last read; resetting
		// before the holder selection aliased the live entries and worked
		// by accident alone.
		s.holders = holders[:0]
		if holder >= 0 {
			lat += s.transferCost(s.nw.Dist(ev.cache, holder), d.SizeKB)
			s.recordOutcome(ev, outcomeGroup, lat, 0, holder)
			s.scheduleInsert(ev.cache, ev.doc, cur, now, lat)
			return
		}
		lat += s.lookup[i]
	}

	// 3. Miss everywhere: fetch from the origin server.
	lat += s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
	s.recordOutcome(ev, outcomeOrigin, lat, d.SizeKB, -1)
	s.scheduleInsert(ev.cache, ev.doc, cur, now, lat)
}

// handleRequestBeacon serves a local miss through the Cache Clouds beacon
// mechanism: the requesting cache queries the beacon responsible for the
// document (hash-partitioned within the group); the beacon either directs
// it to the nearest fresh holder or reports a group-wide miss, after which
// the cache fetches from the origin.
func (s *Simulator) handleRequestBeacon(ev event, d workload.Document, cur int64, now float64) {
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
				s.recordOutcome(ev, outcomeGroup, lat, 0, topology.CacheIndex(best))
				s.scheduleInsert(ev.cache, ev.doc, cur, now, lat)
				return
			}
		}
	}
	lat += s.cfg.OriginProcessingMS + s.transferCost(s.nw.DistToOrigin(ev.cache), d.SizeKB)
	s.recordOutcome(ev, outcomeOrigin, lat, d.SizeKB, -1)
	s.scheduleInsert(ev.cache, ev.doc, cur, now, lat)
}

// recordOutcome records one served request past the warmup cutoff into the
// Report, the observability handles (nil no-ops when Config.Obs is unset)
// and the TraceFn hook. Requests are served in global event order, so every
// sink sees them in that order. originKB is the origin volume served, 0
// unless the outcome is origin or failover.
func (s *Simulator) recordOutcome(ev event, how outcome, latencyMS, originKB float64, peer topology.CacheIndex) {
	if ev.timeSec < s.cfg.WarmupSec {
		return
	}
	s.rep.record(ev.cache, latencyMS, how)
	s.rep.OriginKB += originKB
	s.obsLatency.Record(latencyMS)
	switch how {
	case outcomeLocal:
		s.obsLocal.Inc()
	case outcomeGroup:
		s.obsGroup.Inc()
	case outcomeOrigin:
		s.obsOrigin.Inc()
	case outcomeFailover:
		s.obsFailover.Inc()
	}
	if s.cfg.TraceFn != nil {
		s.cfg.TraceFn(RequestTrace{
			TimeSec:   ev.timeSec,
			Cache:     ev.cache,
			Group:     s.groupOf[int(ev.cache)],
			Doc:       ev.doc,
			Outcome:   how.public(),
			LatencyMS: latencyMS,
			Peer:      peer,
		})
	}
}

// scheduleInsert queues the arrival of a fetched document copy.
func (s *Simulator) scheduleInsert(c topology.CacheIndex, doc workload.DocID, version int64, now, latencyMS float64) {
	ev := event{
		timeSec: now + latencyMS/1000,
		seq:     s.seq,
		cache:   c,
		doc:     doc,
		version: version,
	}
	s.seq++
	s.queue.push(ev)
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
