package protocol

import (
	"errors"

	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/topology"
)

// AgentStats counts one agent's protocol-side work.
type AgentStats struct {
	// ProbeRequests is the number of distinct probe requests measured.
	ProbeRequests int64
	// DupProbeRequests is the number of duplicated probe requests answered
	// from the reply cache without re-measuring.
	DupProbeRequests int64
	// Assigns is the number of distinct assignments applied.
	Assigns int64
	// DupAssigns is the number of duplicated assignment messages re-acked.
	DupAssigns int64
}

// Agent is one edge cache's protocol endpoint: the handler the transport
// calls with each message delivered to the cache. It answers probe
// requests by measuring RTTs through the prober and records its eventual
// group assignment. Requests are deduplicated by sequence number — a
// duplicated or retransmitted request is answered from a cached response
// instead of being re-executed, so the fault-injection transport's
// duplication never doubles measurement work or perturbs determinism.
type Agent struct {
	addr      Addr
	prober    *probe.Prober
	transport Transport

	group   int
	members []topology.CacheIndex
	stats   AgentStats

	// responses caches the reply sent for each request seq, for dedup and
	// retransmission. Seqs are unique per coordinator run, so the map is
	// bounded by the run's message count.
	responses map[uint64]Message
}

// NewAgent builds the agent for cache i and registers it as the handler
// of the cache's address on transport.
func NewAgent(i topology.CacheIndex, prober *probe.Prober, transport Transport) (*Agent, error) {
	if prober == nil {
		return nil, errors.New("protocol: nil prober")
	}
	if transport == nil {
		return nil, errors.New("protocol: nil transport")
	}
	a := &Agent{
		addr:      CacheAddr(i),
		prober:    prober,
		transport: transport,
		group:     -1,
		responses: make(map[uint64]Message),
	}
	transport.Register(a.addr, a.handle)
	return a, nil
}

// Addr returns the agent's address.
func (a *Agent) Addr() Addr { return a.addr }

// Group returns the agent's assigned group (-1 before assignment) and the
// group's member list.
func (a *Agent) Group() (int, []topology.CacheIndex) {
	return a.group, append([]topology.CacheIndex(nil), a.members...)
}

// Stats returns a snapshot of the agent's work counters.
func (a *Agent) Stats() AgentStats { return a.stats }

func (a *Agent) handle(msg Message) {
	// Duplicate request: re-send the cached response. This also covers a
	// retransmission whose original reply was lost in flight.
	if cached, ok := a.responses[msg.Seq]; ok && cached.Kind == expectedReply(msg.Kind) {
		switch msg.Kind {
		case MsgProbeRequest:
			a.stats.DupProbeRequests++
		case MsgAssign:
			a.stats.DupAssigns++
		}
		//ecglint:allow errdrop duplicate-reply delivery is fire-and-forget; the coordinator retries unanswered requests and counts losses
		_ = a.transport.Send(cached)
		return
	}

	switch msg.Kind {
	case MsgProbeRequest:
		rtts := make([]float64, len(msg.Targets))
		m := a.prober.NewMeasurer()
		for i, tgt := range msg.Targets {
			v, err := m.Measure(probe.Cache(a.addr.Cache()), tgt)
			if err != nil {
				// A failed measurement is reported as a negative sentinel;
				// the coordinator treats it as missing.
				v = -1
			}
			rtts[i] = v
		}
		reply := Message{
			Kind: MsgProbeReply,
			From: a.addr,
			To:   msg.From,
			Seq:  msg.Seq,
			RTTs: rtts,
		}
		a.stats.ProbeRequests++
		a.responses[msg.Seq] = reply
		// Reply delivery failures are the coordinator's problem (it
		// retries); the agent stays fire-and-forget.
		//ecglint:allow errdrop reply delivery is fire-and-forget; the coordinator retries unanswered requests
		_ = a.transport.Send(reply)
	case MsgAssign:
		ack := Message{
			Kind:  MsgAssignAck,
			From:  a.addr,
			To:    msg.From,
			Seq:   msg.Seq,
			Group: msg.Group,
		}
		a.group = msg.Group
		a.members = append([]topology.CacheIndex(nil), msg.Members...)
		a.stats.Assigns++
		a.responses[msg.Seq] = ack
		//ecglint:allow errdrop ack delivery is fire-and-forget; the coordinator retries unacknowledged assigns
		_ = a.transport.Send(ack)
	}
}

// expectedReply maps a request kind to the response kind cached for it.
func expectedReply(k MsgKind) MsgKind {
	switch k {
	case MsgProbeRequest:
		return MsgProbeReply
	case MsgAssign:
		return MsgAssignAck
	default:
		return 0
	}
}
