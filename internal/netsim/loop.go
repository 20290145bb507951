package netsim

import (
	"cmp"
	"runtime"
	"slices"

	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/par"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// This file holds Run's event loop. Caches cooperate only inside their own
// group, so no simulation state is shared between two groups: Run deals
// the groups onto shards and each shard replays the whole trace for its
// own groups on its own goroutine, with no barrier between shards.
//
// Each shard merges three sources under the global (timeSec, seq) order:
// its own requests, every origin update, and its own pending fetch
// completions. Both logs are read in (time, index) order (see byTime).
// Sequence numbers fix the tie-break at equal virtual times: requests
// carry their position in that order (0..R-1), updates R+position, and
// fetch completions draw from a per-shard counter that starts at R+U. At
// any timestamp, therefore, requests run before updates and updates
// before completions, and a shard's completions keep the order in which
// it scheduled them — the order a single heap of every event would
// produce, restricted to the shard's caches. Every shard applies every
// update to its own copy of the document versions, over its own holders.
//
// A shard buffers the outcome of each request it serves. When every shard
// is done, merge walks the global request order with one cursor per shard
// and records each outcome into the Report, the obs handles and TraceFn in
// global event order, so every float sum adds in the same order at any
// shard count.

// shard runs the groups dealt to it through the whole trace.
type shard struct {
	s       *Simulator
	id      int32
	owner   []int32            // shard of each cache, shared by all shards
	version []int64            // this shard's copy of the document versions
	dir     holderDir          // fresh holders among this shard's caches
	reqs    []workload.Request // the request log in time order, read-only
	next    int                // cursor: reqs[next] is this shard's next request
	queue   eventQueue         // pending fetch completions
	seq     int64              // next fetch-completion sequence number
	holders []topology.CacheIndex
	events  int64 // requests and completions processed

	// Invalidation messages recorded by this shard's push invalidations.
	invOrigin, invForwarded int64

	// The recorded requests this shard served, in global order: latency,
	// outcome and, only when TraceFn is set, the serving peer.
	lat  []float64
	how  []outcome
	peer []topology.CacheIndex
}

// eventBefore reports whether ev sorts strictly before the event (t, seq)
// under the global (timeSec, seq) event order.
func eventBefore(ev *event, t float64, seq int64) bool {
	if ev.timeSec != t {
		return ev.timeSec < t
	}
	return ev.seq < seq
}

// skip moves the request cursor to the shard's next own request.
func (sh *shard) skip() {
	for sh.next < len(sh.reqs) && sh.owner[sh.reqs[sh.next].Cache] != sh.id {
		sh.next++
	}
}

// head returns the shard's next request or fetch completion under the
// global (timeSec, seq) order — the request at the cursor or the earliest
// pending completion, whichever sorts first — and whether it is the
// request. ok is false when neither source has events left. The cursor
// must sit on one of the shard's requests (see skip).
func (sh *shard) head() (ev event, isRequest, ok bool) {
	if sh.next < len(sh.reqs) {
		r := &sh.reqs[sh.next]
		ev = event{timeSec: r.TimeSec, seq: int64(sh.next), cache: r.Cache, doc: r.Doc}
		if len(sh.queue) == 0 || eventBefore(&ev, sh.queue[0].timeSec, sh.queue[0].seq) {
			return ev, true, true
		}
	}
	if len(sh.queue) > 0 {
		return sh.queue[0], false, true
	}
	return event{}, false, false
}

// byTime returns log in (time, index) order. A log already sorted by
// time — every generated log is — is returned as is after the O(n) check;
// any other log is copied and stably sorted by time, which keeps equal
// times in index order. A position in the result therefore orders events
// exactly as (time, log index) does.
func byTime[T any](log []T, timeOf func(T) float64) []T {
	for k := 1; k < len(log); k++ {
		if timeOf(log[k]) < timeOf(log[k-1]) {
			sorted := slices.Clone(log)
			slices.SortStableFunc(sorted, func(a, b T) int { return cmp.Compare(timeOf(a), timeOf(b)) })
			return sorted
		}
	}
	return log
}

func requestTime(r workload.Request) float64 { return r.TimeSec }

func updateTime(u workload.Update) float64 { return u.TimeSec }

// numShards returns the shard count of a run: one per available core, at
// most one per group.
func (s *Simulator) numShards() int {
	n := s.shardCount
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, len(s.groups)))
}

// newShards deals the groups onto n shards and builds each shard's run
// state over the time-ordered request log. Groups go, most requests first
// (ties by group index), to the shard with the fewest requests so far
// (ties by shard index), so the deal is a deterministic function of the
// logs. Each cache's eviction hook is pointed at its shard.
func (s *Simulator) newShards(n int, requests []workload.Request, numUpdates int) []*shard {
	load := make([]int, len(s.groups))
	for i := range requests {
		load[s.groupOf[int(requests[i].Cache)]]++
	}
	byLoad := make([]int, len(s.groups))
	for g := range byLoad {
		byLoad[g] = g
	}
	slices.SortStableFunc(byLoad, func(a, b int) int { return cmp.Compare(load[b], load[a]) })
	shardLoad := make([]int, n)
	groupShard := make([]int32, len(s.groups))
	for _, g := range byLoad {
		best := 0
		for k := 1; k < n; k++ {
			if shardLoad[k] < shardLoad[best] {
				best = k
			}
		}
		groupShard[g] = int32(best)
		shardLoad[best] += load[g]
	}

	owner := make([]int32, len(s.caches))
	for i, g := range s.groupOf {
		owner[i] = groupShard[g]
	}
	seq := int64(len(requests) + numUpdates)
	numDocs := s.catalog.NumDocuments()
	own := make([][]topology.CacheIndex, len(s.groups))
	shards := make([]*shard, n)
	for k := range shards {
		for g, members := range s.groups {
			own[g] = nil
			if groupShard[g] == int32(k) {
				own[g] = members
			}
		}
		sh := &shard{
			s:       s,
			id:      int32(k),
			owner:   owner,
			version: make([]int64, numDocs),
			dir:     newHolderDir(own, len(s.caches), numDocs),
			reqs:    requests,
			seq:     seq,
			lat:     make([]float64, 0, shardLoad[k]),
			how:     make([]outcome, 0, shardLoad[k]),
		}
		if s.cfg.TraceFn != nil {
			sh.peer = make([]topology.CacheIndex, 0, shardLoad[k])
		}
		for _, c := range sh.dir.cache {
			s.caches[int(c)].SetEvictionHook(sh.evictionHook(c))
		}
		shards[k] = sh
	}
	return shards
}

// evictionHook returns the hook that fires on the shard's goroutine for
// every copy leaving cache c, so the shard's holder directory drops it
// too. It carries no clock, so eviction trace events use TimeSec -1
// ("unknown"); the Value is the document ID. The trace sink takes events
// from every shard as they come, so eviction events of different shards
// interleave in no fixed order; each shard's own events keep their order.
func (sh *shard) evictionHook(c topology.CacheIndex) func(workload.DocID) {
	s := sh.s
	return func(doc workload.DocID) {
		sh.dir.clear(doc, c)
		if s.cfg.Obs == nil {
			return
		}
		s.obsEvictions.Inc()
		s.cfg.Obs.Emit(obs.Event{
			Kind:    obs.KindCacheEvict,
			TimeSec: -1,
			Value:   int64(doc),
			Cache:   int(c),
		})
	}
}

// loop runs the trace on min(GOMAXPROCS, groups) shards and merges their
// outcomes into rep.
func (s *Simulator) loop(rep *Report, requests []workload.Request, updates []workload.Update) error {
	requests = byTime(requests, requestTime)
	updates = byTime(updates, updateTime)
	shards := s.newShards(s.numShards(), requests, len(updates))
	par.ForEach(len(shards), len(shards), func(k int) {
		shards[k].run(updates)
	})
	// The hooks point at the shards, which hold per-run state as large as
	// the request log: unhook them, so a Simulator kept after Run holds no
	// per-request or per-shard state.
	for _, ec := range s.caches {
		ec.SetEvictionHook(nil)
	}
	if err := s.merge(rep, requests, shards); err != nil {
		return err
	}
	for _, u := range updates {
		if u.TimeSec >= s.cfg.WarmupSec {
			rep.Updates++
		}
	}
	for _, sh := range shards {
		rep.InvalidationsOrigin += sh.invOrigin
		rep.InvalidationsForwarded += sh.invForwarded
		s.events += sh.events
	}
	return nil
}

// run processes every event of the shard in global (timeSec, seq) order.
// updates is the time-ordered update log; an update applies as soon as the
// next request or completion does not sort before it.
func (sh *shard) run(updates []workload.Update) {
	numRequests := int64(len(sh.reqs))
	sh.skip()
	u := 0
	for {
		ev, isRequest, ok := sh.head()
		if u < len(updates) {
			if !ok || !eventBefore(&ev, updates[u].TimeSec, numRequests+int64(u)) {
				sh.applyUpdate(updates[u])
				u++
				continue
			}
		}
		if !ok {
			break
		}
		sh.events++
		if isRequest {
			sh.next++
			sh.skip()
			sh.handleRequest(ev)
		} else {
			sh.queue.pop()
			sh.handleFetchComplete(ev)
		}
	}
}

// applyUpdate bumps the shard's copy of the document's version and, under
// PushInvalidation, drops the shard's cached copies. Every copy held at
// that moment is now stale, so the document's holder-directory row is
// cleared. Invalidation counters honor the same warmup window as the
// request-side stats, so overhead-vs-latency comparisons are measured over
// one window; the update itself always executes.
func (sh *shard) applyUpdate(u workload.Update) {
	sh.version[int(u.Doc)]++
	if sh.s.cfg.PushInvalidation {
		sh.pushInvalidate(u.Doc, u.TimeSec >= sh.s.cfg.WarmupSec)
	}
	clear(sh.dir.row(u.Doc))
}

// served buffers the outcome of one request the shard served, unless it
// falls in the warmup window. peer is kept only when TraceFn is set.
func (sh *shard) served(ev event, how outcome, latencyMS float64, peer topology.CacheIndex) {
	if ev.timeSec < sh.s.cfg.WarmupSec {
		return
	}
	sh.lat = append(sh.lat, latencyMS)
	sh.how = append(sh.how, how)
	if sh.s.cfg.TraceFn != nil {
		sh.peer = append(sh.peer, peer)
	}
}

// merge walks the time-ordered request log reqs with one cursor per shard
// and records each recorded request into rep, the observability handles
// (nil no-ops when Config.Obs is unset) and the TraceFn hook, in global
// event order. The origin volume of an origin or failover outcome is the
// document's size.
func (s *Simulator) merge(rep *Report, reqs []workload.Request, shards []*shard) error {
	owner := shards[0].owner
	recorded := 0
	for _, sh := range shards {
		recorded += len(sh.lat)
	}
	rep.Overall.Grow(recorded)
	cursor := make([]int, len(shards))
	for i := range reqs {
		r := &reqs[i]
		if r.TimeSec < s.cfg.WarmupSec {
			continue
		}
		k := owner[int(r.Cache)]
		sh, j := shards[k], cursor[k]
		cursor[k]++
		latencyMS, how := sh.lat[j], sh.how[j]
		var originKB float64
		if how == outcomeOrigin || how == outcomeFailover {
			d, err := s.catalog.Doc(r.Doc)
			if err != nil {
				return err
			}
			originKB = d.SizeKB
		}
		rep.record(r.Cache, latencyMS, how)
		rep.OriginKB += originKB
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
				TimeSec:   r.TimeSec,
				Cache:     r.Cache,
				Group:     s.groupOf[int(r.Cache)],
				Doc:       r.Doc,
				Outcome:   how.public(),
				LatencyMS: latencyMS,
				Peer:      sh.peer[j],
			})
		}
	}
	return nil
}
