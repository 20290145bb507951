package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventKind labels the typed trace records the sink accepts.
type EventKind string

const (
	// KindStageBegin / KindStageEnd bracket a formation or protocol
	// stage (StartSpan emits the pair).
	KindStageBegin EventKind = "stage_begin"
	KindStageEnd   EventKind = "stage_end"
	// KindProtocolRound marks one coordinator collection round (PLSet,
	// features, assignments); Value carries the reply count.
	KindProtocolRound EventKind = "protocol_round"
	// KindCacheEvict marks a document leaving a cache (capacity
	// eviction, stale drop, or invalidation), via the eviction hook.
	KindCacheEvict EventKind = "cache_evict"
)

// Event is one trace record. TimeSec is the emitting layer's clock:
// virtual simulation seconds for simulator events, sink-relative wall
// seconds for everything else (EmitNow/StartSpan). DurMS is a span
// duration in the same clock domain. Cache is the cache index the event
// concerns, -1 when not cache-scoped (always serialized, since cache 0 is
// a valid index). Other zero-valued optional fields are omitted from the
// JSONL export.
type Event struct {
	Kind    EventKind `json:"kind"`
	Name    string    `json:"name,omitempty"`
	TimeSec float64   `json:"time_sec"`
	DurMS   float64   `json:"dur_ms,omitempty"`
	Value   int64     `json:"value,omitempty"`
	Cache   int       `json:"cache"`
}

// TraceSink is a bounded ring buffer of Events. Emit is O(1), takes one
// short mutex hold, and never allocates after construction; when the
// ring is full the oldest event is overwritten and Dropped counts the
// loss. A nil *TraceSink no-ops.
type TraceSink struct {
	mu      sync.Mutex
	ring    []Event
	next    int   // ring index of the next write
	size    int   // live events, <= len(ring)
	dropped int64 // events overwritten after the ring filled
	start   time.Time
}

// NewTraceSink returns a sink holding at most capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceSink{ring: make([]Event, capacity), start: time.Now()}
}

// sinceStart returns wall seconds since the sink was constructed — the
// time base for EmitNow/StartSpan stamps.
func (t *TraceSink) sinceStart() float64 {
	return time.Since(t.start).Seconds()
}

// Emit appends e, overwriting the oldest event when full.
func (t *TraceSink) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *TraceSink) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *TraceSink) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events oldest-first.
func (t *TraceSink) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.size)
	first := t.next - t.size
	if first < 0 {
		first += len(t.ring)
	}
	for i := 0; i < t.size; i++ {
		out = append(out, t.ring[(first+i)%len(t.ring)])
	}
	return out
}

// WriteJSONL writes the buffered events oldest-first, one JSON object
// per line (the /trace endpoint format).
func (t *TraceSink) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
