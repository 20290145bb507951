package netsim

import (
	"cmp"
	"slices"
	"sort"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// This file holds the sharding machinery behind Config.Shards: the
// per-shard state, the partitioning of the request log, the conservative
// virtual-time window loop, and the deterministic merge that reassembles
// the final Report.
//
// The partition follows the paper's own group abstraction: requests,
// cooperative lookups, and fetch completions never cross group boundaries,
// so cache groups are dealt round-robin onto shards and each shard runs its
// own event loop. Origin updates are the only cross-shard events; they act
// as window boundaries and are applied by the coordinator while no shard is
// running, at an identical virtual time in every shard.

// simShard owns the request cursor, completion heap, scratch buffers, and
// report fragment of one partition of the cache network. Everything a
// request can touch — the requesting cache, its group peers, and its fetch
// completion — lives on a single shard, so shards share no mutable state
// inside a window; the request log itself is shared read-only.
//
// A shard's events come from two sources merged under the global
// (timeSec, seq) order: its requests, read in place from the log through
// order and the cursor next, and its pending fetch completions, the only
// events that go on the heap.
type simShard struct {
	log     []workload.Request    // the whole request log, read-only
	order   []int32               // this shard's log indices in (TimeSec, index) order
	next    int                   // cursor: order[next] is the next request to run
	queue   eventQueue            // pending fetch completions
	seq     int64                 // next fetch-completion sequence number
	holders []topology.CacheIndex // holder-scan scratch, reused per request
	recs    []record              // ordered report fragment
	events  int64                 // events processed (diagnostics)
	lastT   float64               // virtual time of the last processed event
}

// record is one recorded request outcome, buffered shard-locally during the
// run and replayed into the final Report by the deterministic merge. It
// carries everything Report.record, the OriginKB accumulation, and the
// TraceFn hook need, so the merge can reproduce the serial run's exact
// float-addition order.
type record struct {
	timeSec   float64
	latencyMS float64
	originKB  float64 // origin volume served (0 unless origin/failover)
	seq       int64
	cache     topology.CacheIndex
	peer      topology.CacheIndex
	doc       workload.DocID
	how       outcome
}

// note appends one recorded request outcome to the shard's fragment.
func (sh *simShard) note(ev event, how outcome, latencyMS, originKB float64, peer topology.CacheIndex) {
	sh.recs = append(sh.recs, record{
		timeSec:   ev.timeSec,
		latencyMS: latencyMS,
		originKB:  originKB,
		seq:       ev.seq,
		cache:     ev.cache,
		peer:      peer,
		doc:       ev.doc,
		how:       how,
	})
}

// eventBefore reports whether ev sorts strictly before the window boundary
// (t, seq) under the global (timeSec, seq) event order.
func eventBefore(ev *event, t float64, seq int64) bool {
	if ev.timeSec != t {
		return ev.timeSec < t
	}
	return ev.seq < seq
}

// head returns the shard's next event under the global (timeSec, seq)
// order — the request at the cursor or the earliest pending fetch
// completion, whichever sorts first — and whether it is the request. ok is
// false when the shard has no events left.
func (sh *simShard) head() (ev event, isRequest, ok bool) {
	if sh.next < len(sh.order) {
		i := sh.order[sh.next]
		r := &sh.log[i]
		ev = event{timeSec: r.TimeSec, seq: int64(i), cache: r.Cache, doc: r.Doc}
		if len(sh.queue) == 0 || eventBefore(&ev, sh.queue[0].timeSec, sh.queue[0].seq) {
			return ev, true, true
		}
	}
	if len(sh.queue) > 0 {
		return sh.queue[0], false, true
	}
	return event{}, false, false
}

// buildShards partitions the request log into per-shard request orders.
// The shard count is the Shards knob clamped to [1, numGroups]; more shards
// than groups would only add empty shards.
//
// Sequence numbers preserve the serial tie-break order at equal virtual
// times: requests carry their log index (0..R-1), update boundaries use
// R+updateIndex, and fetch completions draw from per-shard counters that
// all start at R+U. At any timestamp, therefore, requests sort before the
// update boundary and completions after it — exactly the order a single
// global heap of every event would produce. Completion counters can
// collide across shards, but completions never record anything and their
// effects stay shard-local, so only their intra-shard order matters.
//
// Each shard's record fragment is presized to its request count, an upper
// bound on what it records.
func (s *Simulator) buildShards(requests []workload.Request, numUpdates int) []*simShard {
	numShards := s.cfg.Shards
	if numShards > s.numGroups {
		numShards = s.numGroups
	}
	if numShards < 1 {
		numShards = 1
	}
	counts := make([]int, numShards)
	for _, r := range requests {
		counts[s.groupOf[int(r.Cache)]%numShards]++
	}
	shards := make([]*simShard, numShards)
	base := int64(len(requests) + numUpdates)
	for i := range shards {
		shards[i] = &simShard{
			log:   requests,
			order: make([]int32, 0, counts[i]),
			recs:  make([]record, 0, counts[i]),
			seq:   base,
		}
	}
	for i, r := range requests {
		sh := shards[s.groupOf[int(r.Cache)]%numShards]
		sh.order = append(sh.order, int32(i))
	}
	for _, sh := range shards {
		sh.sortOrder()
	}
	return shards
}

// sortOrder puts the shard's log indices into (TimeSec, index) order. The
// indices start in index order, so a log already sorted by time — every
// generated log is — needs only the O(n) check; any other log gets a
// stable sort by time, which keeps equal times in index order.
func (sh *simShard) sortOrder() {
	for k := 1; k < len(sh.order); k++ {
		if sh.log[sh.order[k]].TimeSec < sh.log[sh.order[k-1]].TimeSec {
			slices.SortStableFunc(sh.order, func(a, b int32) int {
				return cmp.Compare(sh.log[a].TimeSec, sh.log[b].TimeSec)
			})
			return
		}
	}
}

// updateOrder returns the update log's indices sorted into the global
// (TimeSec, log index) event order — the same order the serial simulator
// processed updates in, since it enqueued them after all requests with
// sequence numbers following the log.
func updateOrder(updates []workload.Update) []int {
	order := make([]int, len(updates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := updates[order[a]], updates[order[b]]
		if ua.TimeSec != ub.TimeSec {
			return ua.TimeSec < ub.TimeSec
		}
		return order[a] < order[b]
	})
	return order
}

// runWindow drains every shard's events that sort strictly before the
// window boundary (boundT, boundSeq), concurrently when the run is sharded.
// With final set, the boundary is +infinity and the shards drain
// completely. Returns 1 if any shard had work (feeding the window
// diagnostic counter), 0 otherwise.
func (s *Simulator) runWindow(shards []*simShard, boundT float64, boundSeq int64, final bool) int64 {
	// A cheap serial peek skips the fan-out for empty windows, which are
	// frequent when updates cluster between request batches.
	active := false
	for _, sh := range shards {
		if ev, _, ok := sh.head(); ok && (final || eventBefore(&ev, boundT, boundSeq)) {
			active = true
			break
		}
	}
	if !active {
		return 0
	}
	if len(shards) == 1 {
		// Serial runs skip the fan-out, whose closures would be allocated
		// once per window.
		s.drain(shards[0], boundT, boundSeq, final)
		return 1
	}
	par.ForEach(len(shards), len(shards), func(i int) {
		s.drain(shards[i], boundT, boundSeq, final)
	})
	return 1
}

// drain processes sh's events that sort strictly before the window
// boundary (boundT, boundSeq), or all of them when final is set.
func (s *Simulator) drain(sh *simShard, boundT float64, boundSeq int64, final bool) {
	for {
		ev, isRequest, ok := sh.head()
		if !ok || (!final && !eventBefore(&ev, boundT, boundSeq)) {
			return
		}
		sh.events++
		sh.lastT = ev.timeSec
		if isRequest {
			sh.next++
			s.handleRequest(sh, ev)
		} else {
			sh.queue.pop()
			s.handleFetchComplete(ev)
		}
	}
}

// mergeFragments replays every shard's report fragment into rep in global
// (timeSec, seq) order. The merge calls Report.record, accumulates origin
// volume, and fires the TraceFn hook in exactly the order the serial
// simulator would have, so the merged Report is bit-identical to a
// single-shard run: float-addition order, not just totals, is preserved,
// and the trace hook stays synchronous, ordered, and single-threaded.
func (s *Simulator) mergeFragments(shards []*simShard, rep *Report) {
	idx := make([]int, len(shards))
	for {
		best := -1
		for i, sh := range shards {
			if idx[i] >= len(sh.recs) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := &sh.recs[idx[i]], &shards[best].recs[idx[best]]
			if a.timeSec < b.timeSec || (a.timeSec == b.timeSec && a.seq < b.seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		rc := &shards[best].recs[idx[best]]
		idx[best]++
		rep.record(rc.cache, rc.latencyMS, rc.how)
		if rc.how == outcomeOrigin || rc.how == outcomeFailover {
			rep.OriginKB += rc.originKB
		}
		// Observability feeds from the merge, not the shard loops: this
		// runs single-threaded in global event order, so the latency
		// histogram and outcome counters see every recorded request in the
		// same deterministic order as the Report itself (handles are nil
		// no-ops when Config.Obs is unset).
		s.obsLatency.Record(rc.latencyMS)
		switch rc.how {
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
				TimeSec:   rc.timeSec,
				Cache:     rc.cache,
				Group:     s.groupOf[int(rc.cache)],
				Doc:       rc.doc,
				Outcome:   rc.how.public(),
				LatencyMS: rc.latencyMS,
				Peer:      rc.peer,
			})
		}
	}
}
