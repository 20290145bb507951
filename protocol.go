package ecg

import (
	"edgecachegroups/internal/protocol"
	"edgecachegroups/internal/topology"
)

// Distributed protocol: the group formation rounds as actual message
// passing between a coordinator and per-cache agents in virtual time, with
// retries, message loss, and crash handling.
type (
	// ProtocolConfig tunes the distributed group formation run.
	ProtocolConfig = protocol.Config
	// ProtocolResult is the outcome of a distributed run.
	ProtocolResult = protocol.Result
	// ProtocolCoordinator drives the protocol rounds.
	ProtocolCoordinator = protocol.Coordinator
	// ProtocolAgent is one edge cache's protocol endpoint.
	ProtocolAgent = protocol.Agent
	// ProtocolTransport delivers protocol messages.
	ProtocolTransport = protocol.Transport
	// ChanTransport is the in-process virtual-time transport with its
	// fault model.
	ChanTransport = protocol.ChanTransport
	// ProtocolMessage is one protocol datagram.
	ProtocolMessage = protocol.Message
	// ProtocolAddr addresses a protocol participant.
	ProtocolAddr = protocol.Addr
	// ProtocolLink is a directed communication edge between participants.
	ProtocolLink = protocol.Link
	// FaultConfig tunes the transport's fault model: loss, duplication,
	// delay/reordering, and per-link loss overrides.
	FaultConfig = protocol.FaultConfig
	// TransportStats counts the fault transport's deliveries and drops.
	TransportStats = protocol.TransportStats
	// AgentStats counts one agent's protocol-side work, including
	// deduplicated requests.
	AgentStats = protocol.AgentStats
	// ProtocolRoundError is the typed failure of one protocol round.
	ProtocolRoundError = protocol.RoundError
)

// Typed protocol failure sentinels; match with errors.Is.
var (
	// ErrProtocolQuorum reports a round with too few replies to proceed.
	ErrProtocolQuorum = protocol.ErrQuorum
	// ErrProtocolTransportClosed reports a send on a closed transport.
	ErrProtocolTransportClosed = protocol.ErrTransportClosed
)

// NewFaultTransport builds the in-process transport with the full fault
// model (loss, duplication, bounded delay with reordering, partitions,
// crash/restart). All probabilistic faults draw from deterministic
// per-link child streams of src, so a given seed replays bit-identically.
func NewFaultTransport(faults FaultConfig, src *Rand) (*ChanTransport, error) {
	return protocol.NewFaultTransport(faults, src)
}

// NewProtocolAgent registers the protocol agent for cache i on transport.
func NewProtocolAgent(i CacheIndex, prober *Prober, transport ProtocolTransport) (*ProtocolAgent, error) {
	return protocol.NewAgent(topology.CacheIndex(i), prober, transport)
}

// NewProtocolCoordinator builds the distributed GF-coordinator.
func NewProtocolCoordinator(cfg ProtocolConfig, numCaches int, transport ProtocolTransport, src *Rand) (*ProtocolCoordinator, error) {
	return protocol.NewCoordinator(cfg, numCaches, transport, src)
}

// ProtocolCoordinatorAddr returns the coordinator's protocol address.
func ProtocolCoordinatorAddr() ProtocolAddr { return protocol.CoordinatorAddr() }

// ProtocolCacheAddr returns cache i's protocol address.
func ProtocolCacheAddr(i CacheIndex) ProtocolAddr { return protocol.CacheAddr(i) }
