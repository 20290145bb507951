// Package protocol implements the group formation rounds as an actual
// distributed protocol: the GF-Coordinator and one agent per edge cache
// exchange messages over a pluggable transport. The transport runs in
// virtual time, like the paper's discrete-event simulator: a send queues a
// message, a flush hands queued messages to their handlers, and a reply
// window closes when nothing is left to deliver. A run is therefore a pure
// function of its seeds, faults included.
//
// The paper describes the GF-Coordinator as "the node that coordinates the
// execution of the three steps" (§3) and lists "architectures, mechanisms,
// and system-level facilities for supporting scalable, efficient, and
// reliable cooperation" among its problem statement. internal/core
// implements the algorithms as a library; this package implements the
// coordination itself — request/reply probing rounds, retries, and
// assignment broadcast — so that node failures and message loss are
// first-class behaviours rather than simulation shortcuts.
//
// Protocol rounds:
//
//  1. PLSet probing: the coordinator asks each potential landmark to
//     measure its RTT to the other PLSet members and the origin.
//  2. Landmark selection: greedy max-min over the gathered matrix.
//  3. Feature probing: every cache measures its RTT to each landmark.
//  4. Clustering: K-means (optionally SDSL-weighted) over the features.
//  5. Assignment: each cache is told its group ID and members.
package protocol

import (
	"fmt"

	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/topology"
)

// Addr addresses a protocol participant.
type Addr struct {
	coordinator bool
	cache       topology.CacheIndex
}

// CoordinatorAddr returns the coordinator's address.
func CoordinatorAddr() Addr { return Addr{coordinator: true} }

// CacheAddr returns the address of cache agent i.
func CacheAddr(i topology.CacheIndex) Addr { return Addr{cache: i} }

// IsCoordinator reports whether a addresses the coordinator.
func (a Addr) IsCoordinator() bool { return a.coordinator }

// Cache returns the cache index; valid only when !IsCoordinator().
func (a Addr) Cache() topology.CacheIndex { return a.cache }

// String implements fmt.Stringer.
func (a Addr) String() string {
	if a.coordinator {
		return "coordinator"
	}
	return fmt.Sprintf("cache-%d", int(a.cache))
}

// Link is a directed communication edge between two participants. The
// fault-model transport keys its per-link loss overrides and random
// streams by Link, so each direction of a pair fails independently — as
// asymmetric routes do on a real network.
type Link struct {
	From Addr
	To   Addr
}

// String implements fmt.Stringer.
func (l Link) String() string { return l.From.String() + "->" + l.To.String() }

// MsgKind discriminates protocol messages.
type MsgKind int

// Message kinds.
const (
	// MsgProbeRequest asks a cache to measure its RTT to Targets.
	MsgProbeRequest MsgKind = iota + 1
	// MsgProbeReply carries the measured RTTs, aligned with the request's
	// Targets.
	MsgProbeReply
	// MsgAssign tells a cache its cooperative group.
	MsgAssign
	// MsgAssignAck confirms an assignment.
	MsgAssignAck
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgProbeRequest:
		return "probe-request"
	case MsgProbeReply:
		return "probe-reply"
	case MsgAssign:
		return "assign"
	case MsgAssignAck:
		return "assign-ack"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is one protocol datagram.
type Message struct {
	Kind MsgKind
	From Addr
	To   Addr
	// Seq correlates replies with requests.
	Seq uint64
	// Targets are the endpoints to probe (MsgProbeRequest).
	Targets []probe.Endpoint
	// RTTs align with the corresponding request's Targets (MsgProbeReply).
	RTTs []float64
	// Group is the assigned group ID (MsgAssign / MsgAssignAck).
	Group int
	// Members lists the group's members (MsgAssign).
	Members []topology.CacheIndex
}
