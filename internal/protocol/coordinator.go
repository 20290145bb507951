package protocol

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// Config tunes the distributed group formation run.
type Config struct {
	// L is the landmark count (origin included); M the PLSet multiplier.
	L int
	M int
	// K is the number of groups to form.
	K int
	// Theta is the SDSL sensitivity (0 = plain SL seeding).
	Theta float64
	// Retries is how many times an unanswered request is re-sent before
	// the peer is declared unresponsive; zero means one attempt per
	// request. A request is unanswered when its reply window closes: the
	// transport has nothing left to deliver.
	Retries int
	// Obs is the optional observability sink: rounds emit trace spans and
	// KindProtocolRound events (reply counts), and the run's message /
	// retry / duplicate / timeout totals land in its counters. Nil
	// disables instrumentation; enabling it never changes the Result.
	Obs *obs.Obs
}

// Validate reports whether the config is usable for numCaches caches.
func (c Config) Validate(numCaches int) error {
	if err := c.landmarks().Validate(numCaches); err != nil {
		return err
	}
	switch {
	case c.K < 1 || c.K > numCaches:
		return fmt.Errorf("protocol: K=%d out of range [1,%d]", c.K, numCaches)
	case c.Theta < 0 || math.IsNaN(c.Theta):
		return fmt.Errorf("protocol: Theta must be >= 0, got %v", c.Theta)
	case c.Retries < 0:
		return fmt.Errorf("protocol: Retries must be >= 0, got %d", c.Retries)
	}
	return nil
}

// landmarks returns the landmark-selection parameters.
func (c Config) landmarks() landmark.Params { return landmark.Params{L: c.L, M: c.M} }

// ErrQuorum reports that a round gathered too few replies to proceed.
// Run never panics and never blocks forever: it either returns a verified
// Result or an error wrapping ErrQuorum or ErrTransportClosed.
var ErrQuorum = errors.New("protocol: insufficient responses for quorum")

// RoundError is the typed failure of one protocol round; Round names the
// round ("plset", "features", "cluster"). It wraps the cause, so
// errors.Is(err, ErrQuorum) etc. see through it.
type RoundError struct {
	Round string
	Err   error
}

// Error implements error.
func (e *RoundError) Error() string { return fmt.Sprintf("protocol: round %s: %v", e.Round, e.Err) }

// Unwrap supports errors.Is/As.
func (e *RoundError) Unwrap() error { return e.Err }

// Result is the outcome of a distributed group formation run.
type Result struct {
	// Plan is the formed plan over the responsive caches; its Landmarks
	// are the chosen landmark set (origin first). Plan row i is cache
	// Members[i].
	Plan *core.Plan
	// Members maps plan rows to caches, in ascending cache order.
	Members []topology.CacheIndex
	// Unresponsive lists caches that never answered the feature round or
	// answered it with a failed measurement; they are not part of any
	// group.
	Unresponsive []topology.CacheIndex
	// UnackedAssignments lists caches whose assignment was sent but never
	// acknowledged (they may or may not have applied it), in ascending
	// order.
	UnackedAssignments []topology.CacheIndex
	// MessagesSent counts every protocol message the coordinator sent.
	MessagesSent int64
	// Retries counts request re-sends across all rounds.
	Retries int64
	// DuplicateReplies counts redundant replies received (duplicated
	// deliveries, late replies to already-answered requests, and replies
	// from earlier rounds).
	DuplicateReplies int64
	// TimedOutWaits counts reply windows that closed with requests still
	// pending.
	TimedOutWaits int64
	// PLSetSize and PLSetResponsive surface the landmark round's quorum:
	// landmark selection proceeds on a partial quorum of at least L-1 of
	// the M*(L-1) PLSet members.
	PLSetSize       int
	PLSetResponsive int
	// Degraded reports that the run completed but not cleanly: a partial
	// PLSet quorum, fewer landmarks than L, unresponsive caches, or
	// unacknowledged assignments.
	Degraded bool
}

// Coordinator drives the distributed protocol. Build one per run.
type Coordinator struct {
	cfg       Config
	n         int
	transport Transport
	inbox     []Message // replies delivered since the round last read them
	src       *simrand.Source
	seq       uint64

	sent     int64
	retries  int64
	dups     int64
	timeouts int64
}

// NewCoordinator builds a coordinator for a network of numCaches agents.
func NewCoordinator(cfg Config, numCaches int, transport Transport, src *simrand.Source) (*Coordinator, error) {
	if transport == nil {
		return nil, errors.New("protocol: nil transport")
	}
	if src == nil {
		return nil, errors.New("protocol: nil random source")
	}
	if err := cfg.Validate(numCaches); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, n: numCaches, transport: transport, src: src}
	transport.Register(CoordinatorAddr(), func(m Message) { c.inbox = append(c.inbox, m) })
	return c, nil
}

// RunWithFaults runs one distributed formation over a fresh transport
// with the fault model faults: it starts an agent for each of numCaches
// caches, kills the crash highest-index ones, and runs a coordinator with
// cfg. The transport draws from src.Split("transport") and the
// coordinator from src.Split("coordinator"). The returned transport is
// closed; Run leaves nothing in flight, so its Stats cover the whole run.
func RunWithFaults(cfg Config, faults FaultConfig, prober *probe.Prober, numCaches, crash int, src *simrand.Source) (*Result, *ChanTransport, error) {
	if crash < 0 || crash >= numCaches {
		return nil, nil, fmt.Errorf("crash count %d out of range [0,%d)", crash, numCaches)
	}
	tr, err := NewFaultTransport(faults, src.Split("transport"))
	if err != nil {
		return nil, nil, err
	}
	defer tr.Close()
	for i := 0; i < numCaches; i++ {
		if _, err := NewAgent(topology.CacheIndex(i), prober, tr); err != nil {
			return nil, nil, fmt.Errorf("start agent %d: %w", i, err)
		}
	}
	for i := 0; i < crash; i++ {
		tr.Kill(CacheAddr(topology.CacheIndex(numCaches - 1 - i)))
	}
	coord, err := NewCoordinator(cfg, numCaches, tr, src.Split("coordinator"))
	if err != nil {
		return nil, nil, err
	}
	res, err := coord.Run()
	return res, tr, err
}

// Run executes the five protocol rounds and returns the formed groups.
// It returns either a Result whose plan and conservation accounting
// passed its invariant checks or a typed error (*RoundError / *verify.Error);
// it never panics, and each round makes at most Retries+1 attempts.
func (c *Coordinator) Run() (*Result, error) {
	// Round 1: PLSet probing.
	plset, err := landmark.SamplePLSet(c.n, c.cfg.landmarks(), c.src.Split("landmarks"))
	if err != nil {
		return nil, err
	}
	plTargets := make([]probe.Endpoint, 0, len(plset)+1)
	plTargets = append(plTargets, probe.Origin())
	for _, ci := range plset {
		plTargets = append(plTargets, probe.Cache(ci))
	}
	plReplies, plClosed := c.requestRound("plset", plset, plTargets)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "plset", int64(len(plReplies)))
	if len(plReplies) < c.cfg.L-1 {
		return nil, c.roundFailure("plset", plClosed, fmt.Errorf("only %d of %d PLSet members responded, need >= %d",
			len(plReplies), len(plset), c.cfg.L-1))
	}

	// Round 2: landmark selection over the gathered matrix, restricted to
	// the PLSet members that responded.
	dist := symmetricPLSetMatrix(plset, plTargets, plReplies)
	chosen := landmark.Disperse(len(plTargets), c.cfg.L,
		func(i, j int) float64 { return dist[i][j] },
		func(i int) bool {
			_, ok := plReplies[plset[i-1]]
			return ok
		}, true)
	landmarks := make([]probe.Endpoint, len(chosen))
	for i, j := range chosen {
		landmarks[i] = plTargets[j]
	}

	// Round 3: feature probing by every cache.
	all := make([]topology.CacheIndex, c.n)
	for i := range all {
		all[i] = topology.CacheIndex(i)
	}
	featReplies, featClosed := c.requestRound("features", all, landmarks)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "features", int64(len(featReplies)))

	// Round 4: clustering, through core's formation step. A cache whose
	// reply holds a failed measurement has no usable feature vector, so it
	// is left out like a silent one.
	var responsive, unresponsive []topology.CacheIndex
	for _, ci := range all {
		if rtts, ok := featReplies[ci]; ok && !slices.ContainsFunc(rtts, failed) {
			responsive = append(responsive, ci)
		} else {
			unresponsive = append(unresponsive, ci)
		}
	}
	if len(responsive) < c.cfg.K {
		return nil, c.roundFailure("features", featClosed, fmt.Errorf("only %d caches responded with complete features, need >= K=%d",
			len(responsive), c.cfg.K))
	}
	points := cluster.NewMatrix(len(responsive), len(landmarks))
	for i, ci := range responsive {
		copy(points.Row(i), featReplies[ci])
	}
	template := core.Plan{
		Scheme:    core.SDSL(c.cfg.L, c.cfg.M, c.cfg.Theta).Name(),
		Landmarks: landmarks,
		Theta:     c.cfg.Theta,
	}
	endCluster := c.cfg.Obs.StartSpan("cluster")
	plan, err := template.Reform(points, c.cfg.K, c.src.Split("kmeans"))
	endCluster()
	if err != nil {
		return nil, &RoundError{Round: "cluster", Err: fmt.Errorf("cluster features: %w", err)}
	}
	res := &Result{
		Plan:            plan,
		Members:         responsive,
		Unresponsive:    unresponsive,
		PLSetSize:       len(plset),
		PLSetResponsive: len(plReplies),
	}

	// Round 5: assignment broadcast with acknowledgements.
	res.UnackedAssignments = c.assignRound(res)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "assign",
		int64(len(res.Members)-len(res.UnackedAssignments)))
	res.MessagesSent = c.sent
	res.Retries = c.retries
	res.DuplicateReplies = c.dups
	res.TimedOutWaits = c.timeouts
	res.Degraded = res.PLSetResponsive < res.PLSetSize ||
		len(res.Plan.Landmarks) < c.cfg.L ||
		len(res.Unresponsive) > 0 ||
		len(res.UnackedAssignments) > 0

	if o := c.cfg.Obs; o != nil {
		o.Counter("protocol_messages_sent_total").Add(res.MessagesSent)
		o.Counter("protocol_retries_total").Add(res.Retries)
		o.Counter("protocol_duplicate_replies_total").Add(res.DuplicateReplies)
		o.Counter("protocol_timed_out_waits_total").Add(res.TimedOutWaits)
		if res.Degraded {
			o.Counter("protocol_degraded_runs_total").Inc()
		}
		o.Gauge("protocol_unresponsive").Set(float64(len(res.Unresponsive)))
		o.Gauge("protocol_unacked_assignments").Set(float64(len(res.UnackedAssignments)))
		o.Gauge("protocol_plset_size").Set(float64(res.PLSetSize))
		o.Gauge("protocol_plset_responsive").Set(float64(res.PLSetResponsive))
	}
	if err := c.verifyResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyResult audits the plan (a well-formed partition whose centers are
// the means of their members) and the run's conservation invariants
// before the result is handed out: every cache is accounted for exactly
// once (assigned or unresponsive), degradation counts stay within their
// bounds, and the traffic counters are consistent.
func (c *Coordinator) verifyResult(res *Result) error {
	if err := res.Plan.Verify(nil); err != nil {
		return err
	}
	return verifyAccounting(c.n, res)
}

// verifyAccounting checks the accounting of a run over n caches and
// returns the first violated invariant as a *verify.Error.
func verifyAccounting(n int, res *Result) error {
	fail := func(format string, args ...any) error { return verify.Errorf("protocol", format, args...) }
	assigned, unresponsive, unacked := len(res.Members), len(res.Unresponsive), len(res.UnackedAssignments)
	if n < 1 {
		return fail("NumCaches = %d, want >= 1", n)
	}
	if assigned+unresponsive != n {
		return fail("cache conservation violated: assigned %d + unresponsive %d != %d caches",
			assigned, unresponsive, n)
	}
	if unacked > assigned {
		return fail("unacked %d exceeds assigned %d", unacked, assigned)
	}
	if res.MessagesSent < 0 || res.Retries < 0 || res.DuplicateReplies < 0 || res.TimedOutWaits < 0 {
		return fail("negative traffic counters: sent=%d retries=%d dups=%d timeouts=%d",
			res.MessagesSent, res.Retries, res.DuplicateReplies, res.TimedOutWaits)
	}
	// Every cache got at least one feature request and every assigned cache
	// at least one assign message, so the send counter has a hard floor.
	if min := int64(n + assigned); res.MessagesSent < min {
		return fail("MessagesSent %d below the %d-message floor (n=%d + assigned=%d)",
			res.MessagesSent, min, n, assigned)
	}
	if res.Retries > res.MessagesSent {
		return fail("Retries %d exceeds MessagesSent %d", res.Retries, res.MessagesSent)
	}
	return nil
}

// Groups returns the members of each group as cache indices, ascending,
// indexed by group ID.
func (r *Result) Groups() [][]topology.CacheIndex {
	out := make([][]topology.CacheIndex, r.Plan.NumGroups())
	for i, g := range r.Plan.Assignments {
		out[g] = append(out[g], r.Members[i])
	}
	return out
}

// roundFailure wraps a below-quorum round into the typed error chain;
// closed reports that the transport closed during the round.
func (c *Coordinator) roundFailure(round string, closed bool, reason error) error {
	err := fmt.Errorf("%v: %w", reason, ErrQuorum)
	if closed {
		err = fmt.Errorf("%w (%w)", err, ErrTransportClosed)
	}
	return &RoundError{Round: round, Err: err}
}

// round sends msg(p) to every peer and collects one accepted reply per
// peer, re-sending to unanswered peers up to Retries times. Each attempt
// sends to the pending peers, then flushes the transport: the reply window
// closes when nothing is left to deliver, and a closed transport ends the
// round at once. The round stamps each message's addresses and a fresh
// sequence number, and calls accept only for a reply to a peer's
// outstanding request. It returns the peers left without an accepted
// reply, in peers order, and whether the transport closed.
func (c *Coordinator) round(name string, peers []topology.CacheIndex,
	msg func(p topology.CacheIndex) Message, accept func(p topology.CacheIndex, reply Message) bool,
) (left []topology.CacheIndex, closed bool) {
	defer c.cfg.Obs.StartSpan("protocol-" + name)()
	pending := make(map[topology.CacheIndex]bool, len(peers))
	for _, p := range peers {
		pending[p] = true
	}
	seqOf := make(map[uint64]topology.CacheIndex)

	for attempt := 0; attempt <= c.cfg.Retries && len(pending) > 0; attempt++ {
		if attempt > 0 {
			c.retries += int64(len(pending))
		}
		// Iterate peers in their given order so sequence numbers, and the
		// per-link traffic they generate, follow the peer order.
		for _, p := range peers {
			if !pending[p] {
				continue
			}
			c.seq++
			seqOf[c.seq] = p
			c.sent++
			m := msg(p)
			m.From, m.To, m.Seq = CoordinatorAddr(), CacheAddr(p), c.seq
			//ecglint:allow errdrop lost requests are re-sent by the retry loop and counted in c.retries
			_ = c.transport.Send(m)
		}
		err := c.transport.Flush()
		// Anything that is not an accepted answer to a pending request of
		// this round — a duplicated delivery, a late reply to an answered
		// or older request, a malformed reply — counts as redundant, so the
		// counter equals delivered-minus-accepted.
		for _, reply := range c.inbox {
			p, known := seqOf[reply.Seq]
			if !known || !pending[p] || !accept(p, reply) {
				c.dups++
				continue
			}
			delete(pending, p)
		}
		c.inbox = c.inbox[:0]
		if err != nil {
			closed = true
			break
		}
		if len(pending) > 0 {
			c.timeouts++
		}
	}
	for _, p := range peers {
		if pending[p] {
			left = append(left, p)
		}
	}
	return left, closed
}

// requestRound asks every peer to probe targets and returns the RTT
// vectors keyed by cache index.
func (c *Coordinator) requestRound(name string, peers []topology.CacheIndex, targets []probe.Endpoint) (replies map[topology.CacheIndex][]float64, closed bool) {
	replies = make(map[topology.CacheIndex][]float64, len(peers))
	_, closed = c.round(name, peers,
		func(topology.CacheIndex) Message { return Message{Kind: MsgProbeRequest, Targets: targets} },
		func(p topology.CacheIndex, reply Message) bool {
			if reply.Kind != MsgProbeReply || len(reply.RTTs) != len(targets) {
				return false
			}
			replies[p] = reply.RTTs
			return true
		})
	return replies, closed
}

// failed reports whether an agent's measurement is the negative sentinel
// of a failed probe.
func failed(rtt float64) bool { return rtt < 0 }

// symmetricPLSetMatrix builds the symmetric distance matrix over
// plTargets from the gathered replies. Each direction of a pair may carry
// an independent measurement (member i probed target j AND member j
// probed target i); the matrix entry is the mean of whichever directions
// were measured, computed once per unordered pair so both triangle
// entries always agree. Unknown pairs stay 0 so candidates with missing
// data are never preferred by the max-min selection.
func symmetricPLSetMatrix(plset []topology.CacheIndex, plTargets []probe.Endpoint, replies map[topology.CacheIndex][]float64) [][]float64 {
	n := len(plTargets)
	directed := make([][]float64, n) // directed[i][j]: i's measurement of j, -1 unknown
	for i := range directed {
		directed[i] = make([]float64, n)
		for j := range directed[i] {
			directed[i][j] = -1
		}
	}
	for i, ci := range plset {
		rtts, ok := replies[ci]
		if !ok {
			continue
		}
		row := i + 1 // offset past the origin
		for j, v := range rtts {
			if j >= n || v < 0 {
				continue
			}
			directed[row][j] = v
		}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := directed[i][j], directed[j][i]
			var v float64
			switch {
			case a >= 0 && b >= 0:
				v = (a + b) / 2
			case a >= 0:
				v = a
			case b >= 0:
				v = b
			}
			dist[i][j], dist[j][i] = v, v
		}
	}
	return dist
}

// assignRound sends each plan member its group and member list and
// returns the caches that never acknowledged, ascending.
func (c *Coordinator) assignRound(res *Result) []topology.CacheIndex {
	groups := res.Groups()
	unacked, _ := c.round("assign", res.Members,
		func(ci topology.CacheIndex) Message {
			i, _ := slices.BinarySearch(res.Members, ci)
			g := res.Plan.Assignments[i]
			return Message{Kind: MsgAssign, Group: g, Members: groups[g]}
		},
		func(_ topology.CacheIndex, reply Message) bool { return reply.Kind == MsgAssignAck })
	return unacked
}
