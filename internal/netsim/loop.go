package netsim

import (
	"cmp"
	"slices"

	"edgecachegroups/internal/workload"
)

// This file holds Run's event loop: one virtual-time loop that merges the
// request log, the update log and the pending fetch completions under the
// global (timeSec, seq) order.
//
// Sequence numbers fix the tie-break at equal virtual times: requests carry
// their log index (0..R-1), updates R+updateIndex, and fetch completions
// draw from a counter that starts at R+U. At any timestamp, therefore,
// requests run before updates and updates before completions — the order a
// single heap of every event would produce — while only the handful of
// in-flight completions ever sit on a heap.

// eventBefore reports whether ev sorts strictly before the event (t, seq)
// under the global (timeSec, seq) event order.
func eventBefore(ev *event, t float64, seq int64) bool {
	if ev.timeSec != t {
		return ev.timeSec < t
	}
	return ev.seq < seq
}

// head returns the next request or fetch completion under the global
// (timeSec, seq) order — the request at the cursor or the earliest pending
// completion, whichever sorts first — and whether it is the request. ok is
// false when neither source has events left.
func (s *Simulator) head() (ev event, isRequest, ok bool) {
	if s.next < len(s.order) {
		i := s.order[s.next]
		r := &s.requests[i]
		ev = event{timeSec: r.TimeSec, seq: int64(i), cache: r.Cache, doc: r.Doc}
		if len(s.queue) == 0 || eventBefore(&ev, s.queue[0].timeSec, s.queue[0].seq) {
			return ev, true, true
		}
	}
	if len(s.queue) > 0 {
		return s.queue[0], false, true
	}
	return event{}, false, false
}

// timeOrder returns the indices of log in (time, index) order. A log
// already sorted by time — every generated log is — needs only the O(n)
// check; any other log gets a stable sort by time, which keeps equal times
// in index order.
func timeOrder[T any](log []T, timeOf func(*T) float64) []int32 {
	order := make([]int32, len(log))
	for i := range order {
		order[i] = int32(i)
	}
	for k := 1; k < len(log); k++ {
		if timeOf(&log[k]) < timeOf(&log[k-1]) {
			slices.SortStableFunc(order, func(a, b int32) int {
				return cmp.Compare(timeOf(&log[a]), timeOf(&log[b]))
			})
			break
		}
	}
	return order
}

func requestTime(r *workload.Request) float64 { return r.TimeSec }

func updateTime(u *workload.Update) float64 { return u.TimeSec }

// loop runs every event of the run in global (timeSec, seq) order. An
// update applies as soon as the next request or completion does not sort
// before it.
func (s *Simulator) loop(requests []workload.Request, updates []workload.Update) {
	s.requests = requests
	s.order = timeOrder(requests, requestTime)
	s.seq = int64(len(requests) + len(updates))
	updOrder := timeOrder(updates, updateTime)
	u := 0
	for {
		ev, isRequest, ok := s.head()
		if u < len(updOrder) {
			ui := int(updOrder[u])
			if !ok || !eventBefore(&ev, updates[ui].TimeSec, int64(len(requests)+ui)) {
				s.applyUpdate(updates[ui])
				u++
				continue
			}
		}
		if !ok {
			break
		}
		s.events++
		if isRequest {
			s.next++
			s.handleRequest(ev)
		} else {
			s.queue.pop()
			s.handleFetchComplete(ev)
		}
	}
	// The request order is as large as the log: drop it, so a Simulator
	// kept after Run holds no per-request state.
	s.requests, s.order = nil, nil
}

// applyUpdate bumps the document's version and, under PushInvalidation,
// drops its cached copies. Every copy held at that moment is now stale, so
// the document's holder-directory row is cleared. Update-side counters
// honor the same warmup window as the request-side stats, so
// overhead-vs-latency comparisons are measured over one window; the update
// itself always executes.
func (s *Simulator) applyUpdate(u workload.Update) {
	s.version[int(u.Doc)]++
	record := u.TimeSec >= s.cfg.WarmupSec
	if record {
		s.rep.Updates++
	}
	if s.cfg.PushInvalidation {
		s.pushInvalidate(u.Doc, s.rep, record)
	}
	clear(s.dir.row(u.Doc))
}
