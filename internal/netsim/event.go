// Package netsim implements a discrete event simulator for the cooperative
// edge cache network (the paper's evaluation substrate, §5). Edge caches
// are driven by request logs; the origin server replays an update log;
// caches inside a cooperative group handle misses cooperatively before
// falling back to the origin server.
package netsim

import (
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// event is one request or fetch completion in the event loop.
type event struct {
	timeSec float64
	seq     int64 // tie-breaker for deterministic ordering
	cache   topology.CacheIndex
	doc     workload.DocID
	version int64 // version carried by fetch completions
}

// eventQueue is a min-heap over (timeSec, seq) holding the pending fetch
// completions. The heap operations work on the concrete event type directly
// rather than through container/heap, whose interface{} parameters box
// every pushed and popped event — two heap allocations per simulated event
// on the hot path.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) less(i, j int) bool {
	if q[i].timeSec != q[j].timeSec {
		return q[i].timeSec < q[j].timeSec
	}
	return q[i].seq < q[j].seq
}

// push adds ev and restores the heap invariant.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (q *eventQueue) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return ev
}
