package protocol

import (
	"errors"
	"fmt"
	"sync"

	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/simrand"
)

// Transport delivers messages between protocol participants in virtual
// time: Send queues a message, and Flush hands queued messages to their
// addresses' handlers until none is left. A handler may Send, so one Flush
// runs a whole request/reply exchange to quiescence. Send, Register and
// Close are safe for concurrent use; handlers run on the goroutine that
// calls Flush.
type Transport interface {
	// Send queues msg for msg.To's handler. A Send to an unregistered
	// address errors; a dropped (lossy) message does NOT error — loss is
	// silent, as on a real network.
	Send(msg Message) error
	// Register sets the handler that receives addr's messages.
	Register(addr Addr, h func(Message))
	// Flush delivers queued messages, oldest first, until none is left.
	// Whenever the queue drains, copies held back for reordering are
	// released in the order they were held, so a delayed message arrives
	// late but is never stranded. It returns ErrTransportClosed once the
	// transport is closed.
	Flush() error
	// Close shuts the transport down; subsequent Sends and Flushes fail.
	Close()
}

// ErrTransportClosed is returned by Send and Flush after Close.
var ErrTransportClosed = errors.New("protocol: transport closed")

// FaultConfig describes the deterministic fault model of a ChanTransport.
// The zero value injects no faults. Every probabilistic knob draws from a
// per-link child stream of the transport's random source, so the fate of a
// message is a pure function of (seed, link, position in the link's send
// sequence) — independent of the order of sends on other links. Runs with
// the same seed therefore replay bit-identically.
type FaultConfig struct {
	// Loss is the default per-message drop probability in [0,1), applied
	// independently on every link.
	Loss float64
	// LinkLoss overrides Loss for specific directed links, so tests can
	// model one flaky path (e.g. coordinator -> cache-7) without
	// perturbing the rest of the network.
	LinkLoss map[Link]float64
	// DupProb is the probability in [0,1) that a delivered message is
	// duplicated (both copies then pass independently through the delay
	// stage).
	DupProb float64
	// DelayProb is the probability in [0,1) that a message is delayed and
	// reordered: a delayed message is held back and delivered only after
	// 1..MaxDelay subsequent sends on the same link, or once the
	// transport has nothing else to deliver, so it arrives behind messages
	// sent after it. Delay is measured in link messages, not wall-clock
	// time — a virtual-time queue that keeps runs reproducible.
	DelayProb float64
	// MaxDelay bounds the reordering window in subsequent link sends.
	// Zero means the default (4) when DelayProb > 0.
	MaxDelay int
}

// Validate reports whether the fault model is usable.
func (fc FaultConfig) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{{"Loss", fc.Loss}, {"DupProb", fc.DupProb}, {"DelayProb", fc.DelayProb}}
	for _, p := range probs {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("protocol: %s must be in [0,1), got %v", p.name, p.v)
		}
	}
	for link, v := range fc.LinkLoss {
		if v < 0 || v >= 1 {
			return fmt.Errorf("protocol: LinkLoss[%v] must be in [0,1), got %v", link, v)
		}
	}
	if fc.MaxDelay < 0 {
		return fmt.Errorf("protocol: MaxDelay must be >= 0, got %d", fc.MaxDelay)
	}
	return nil
}

func (fc FaultConfig) withDefaults() FaultConfig {
	if fc.DelayProb > 0 && fc.MaxDelay == 0 {
		fc.MaxDelay = 4
	}
	return fc
}

// TransportStats counts what the fault model did to the traffic. All
// counters are monotone. Every copy the transport decided on (duplication
// mints extra copies) is delivered, dropped, or still queued or held:
// Sent + Duplicated = Delivered + the Dropped* counters + in flight, and
// nothing is in flight after Close.
type TransportStats struct {
	// Sent counts Send calls that found an open transport and a handler.
	Sent int64
	// Delivered counts copies handed to a handler.
	Delivered int64
	// Duplicated counts messages the duplication stage copied.
	Duplicated int64
	// Delayed counts copies held back for reordering.
	Delayed int64
	// DroppedLoss / DroppedDead / DroppedPartition / DroppedClosed count
	// copies removed by each failure mode (loss draw, crashed destination,
	// partition cut, transport close with copies still queued or held).
	DroppedLoss      int64
	DroppedDead      int64
	DroppedPartition int64
	DroppedClosed    int64
}

// heldMessage is a delayed copy waiting for `after` further sends on its
// link, or for the queue to drain, before delivery.
type heldMessage struct {
	msg   Message
	after int
}

// ChanTransport is the in-process Transport: a FIFO of queued copies and
// a handler per registered address, with a deterministic fault model for
// failure-injection tests: per-link message loss, duplication, bounded
// delay with reordering, network partitions, and node crash/restart. See
// FaultConfig for the determinism contract. The zero-fault configuration
// is a plain reliable transport.
type ChanTransport struct {
	mu       sync.Mutex
	handlers map[Addr]func(Message)
	queue    []Message
	held     []heldMessage // delayed copies, in hold order
	closed   bool

	faults FaultConfig
	src    *simrand.Source // nil disables all probabilistic faults
	links  map[Link]*simrand.Source

	// dead addresses silently swallow all traffic (crashed nodes);
	// killAfter schedules a crash after N further deliveries to the node,
	// so mid-round crashes land at deterministic protocol positions.
	dead      map[Addr]bool
	killAfter map[Addr]int

	// isolated addresses are cut from the rest of the network (but can
	// still reach each other) while a partition is active.
	isolated map[Addr]bool

	stats TransportStats
}

var _ Transport = (*ChanTransport)(nil)

// NewFaultTransport builds an in-process transport with the full
// deterministic fault model. A nil src disables every probabilistic fault
// (loss, duplication, delay) regardless of the configured probabilities;
// partitions and crashes still apply.
func NewFaultTransport(fc FaultConfig, src *simrand.Source) (*ChanTransport, error) {
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return &ChanTransport{
		handlers:  make(map[Addr]func(Message)),
		faults:    fc.withDefaults(),
		src:       src,
		links:     make(map[Link]*simrand.Source),
		dead:      make(map[Addr]bool),
		killAfter: make(map[Addr]int),
		isolated:  make(map[Addr]bool),
	}, nil
}

// Register implements Transport.
func (t *ChanTransport) Register(addr Addr, h func(Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[addr] = h
}

// Kill marks addr as crashed: all traffic to it is silently dropped.
func (t *ChanTransport) Kill(addr Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dead[addr] = true
	delete(t.killAfter, addr)
}

// KillAfter schedules addr to crash after n more deliveries reach it.
// Deliveries follow the transport's FIFO order, so the crash lands at the
// same protocol position on every run. n <= 0 crashes immediately.
func (t *ChanTransport) KillAfter(addr Addr, n int) {
	if n <= 0 {
		t.Kill(addr)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.dead[addr] {
		t.killAfter[addr] = n
	}
}

// Restart revives a crashed addr: traffic flows to it again. Copies
// dropped while it was down stay dropped.
func (t *ChanTransport) Restart(addr Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.dead, addr)
}

// Partition cuts the listed addresses off from the rest of the network:
// messages between an isolated and a non-isolated participant are
// dropped, while traffic within either side still flows. A new call
// replaces the previous partition.
func (t *ChanTransport) Partition(isolated ...Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.isolated = make(map[Addr]bool, len(isolated))
	for _, a := range isolated {
		t.isolated[a] = true
	}
}

// Heal removes the partition.
func (t *ChanTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.isolated = make(map[Addr]bool)
}

// Stats returns a snapshot of the fault-model counters.
func (t *ChanTransport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// PublishObs mirrors the transport's cumulative delivery statistics into
// o's registry as transport_* gauges. The counters are monotone totals,
// so republishing after later runs just advances the gauges; a nil *Obs
// no-ops.
func (t *ChanTransport) PublishObs(o *obs.Obs) {
	if o == nil {
		return
	}
	st := t.Stats()
	o.Gauge("transport_sent").Set(float64(st.Sent))
	o.Gauge("transport_delivered").Set(float64(st.Delivered))
	o.Gauge("transport_duplicated").Set(float64(st.Duplicated))
	o.Gauge("transport_delayed").Set(float64(st.Delayed))
	o.Gauge("transport_dropped_loss").Set(float64(st.DroppedLoss))
	o.Gauge("transport_dropped_dead").Set(float64(st.DroppedDead))
	o.Gauge("transport_dropped_partition").Set(float64(st.DroppedPartition))
	o.Gauge("transport_dropped_closed").Set(float64(st.DroppedClosed))
}

// link returns (creating on first use) the fault stream of one directed
// link, nil when probabilistic faults are off. The stream is split off the
// root source by the link label, a pure function of (seed, link) —
// creation order does not matter.
func (t *ChanTransport) link(key Link) *simrand.Source {
	src, ok := t.links[key]
	if !ok {
		if t.src != nil {
			src = t.src.Split("link/" + key.String())
		}
		t.links[key] = src
	}
	return src
}

// Send implements Transport. The fault decisions run under the transport
// mutex; surviving copies join the FIFO that Flush drains.
func (t *ChanTransport) Send(msg Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTransportClosed
	}
	if _, ok := t.handlers[msg.To]; !ok && !t.dead[msg.To] {
		return fmt.Errorf("protocol: no handler for %v", msg.To)
	}
	t.stats.Sent++
	if t.dead[msg.To] {
		t.stats.DroppedDead++
		return nil // crashed node: message vanishes
	}
	if t.isolated[msg.From] != t.isolated[msg.To] {
		t.stats.DroppedPartition++
		return nil
	}

	key := Link{From: msg.From, To: msg.To}
	src := t.link(key)

	// Fault-process the new message first, then release held copies whose
	// reordering window ended with this send — so a released copy arrives
	// AFTER the newer message, which is what reordering means. Copies held
	// by this very send start aging at the next one.
	var newHolds []heldMessage
	if lost := src != nil && src.Bernoulli(t.lossProbLocked(msg)); lost {
		t.stats.DroppedLoss++
	} else {
		copies := 1
		if src != nil && src.Bernoulli(t.faults.DupProb) {
			copies = 2
			t.stats.Duplicated++
		}
		for c := 0; c < copies; c++ {
			if src != nil && src.Bernoulli(t.faults.DelayProb) {
				t.stats.Delayed++
				newHolds = append(newHolds, heldMessage{msg: msg, after: 1 + src.Intn(t.faults.MaxDelay)})
				continue
			}
			t.queue = append(t.queue, msg)
		}
	}

	kept := t.held[:0]
	for _, h := range t.held {
		if (Link{From: h.msg.From, To: h.msg.To}) == key {
			if h.after--; h.after <= 0 {
				t.queue = append(t.queue, h.msg)
				continue
			}
		}
		kept = append(kept, h)
	}
	t.held = append(kept, newHolds...)
	return nil
}

// lossProbLocked resolves the loss probability for msg's link.
func (t *ChanTransport) lossProbLocked(msg Message) float64 {
	if p, ok := t.faults.LinkLoss[Link{From: msg.From, To: msg.To}]; ok {
		return p
	}
	return t.faults.Loss
}

// Flush implements Transport. Each queued copy is checked against the
// crash state and the KillAfter schedule under the mutex, then handed to
// its handler with the mutex released, so the handler can Send.
func (t *ChanTransport) Flush() error {
	for {
		msg, h, ok := t.next()
		if !ok {
			break
		}
		h(msg)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTransportClosed
	}
	return nil
}

// next pops the oldest queued copy to a live address and returns it with
// its handler, counting copies to crashed addresses as dropped on the way.
// When the queue drains, the held copies are released into it in hold
// order: with nothing left to deliver, no handler will send on their links
// again to age them. ok is false once nothing is queued or held, or the
// transport is closed.
func (t *ChanTransport) next() (msg Message, h func(Message), ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.closed {
		if len(t.queue) == 0 {
			if len(t.held) == 0 {
				break
			}
			for _, held := range t.held {
				t.queue = append(t.queue, held.msg)
			}
			t.held = nil
		}
		msg = t.queue[0]
		t.queue = t.queue[1:]
		if t.dead[msg.To] {
			t.stats.DroppedDead++
			continue
		}
		t.stats.Delivered++
		if n, scheduled := t.killAfter[msg.To]; scheduled {
			if n <= 1 {
				t.dead[msg.To] = true
				delete(t.killAfter, msg.To)
			} else {
				t.killAfter[msg.To] = n - 1
			}
		}
		return msg, t.handlers[msg.To], true
	}
	return Message{}, nil, false
}

// Close implements Transport. Queued and held copies are dropped, as
// in-flight packets are when a network goes away.
func (t *ChanTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.stats.DroppedClosed += int64(len(t.queue) + len(t.held))
	t.queue, t.held = nil, nil
}
