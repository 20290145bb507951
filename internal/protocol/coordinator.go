package protocol

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// NoRetries configures Config.Retries for exactly one attempt per request.
// The zero value of Retries means "use the default"; this sentinel makes
// an explicit zero-retry run expressible.
const NoRetries = -1

// Config tunes the distributed group formation run.
type Config struct {
	// L is the landmark count (origin included); M the PLSet multiplier.
	L int
	M int
	// K is the number of groups to form.
	K int
	// Theta is the SDSL sensitivity (0 = plain SL seeding).
	Theta float64
	// ReplyTimeout bounds each wait for outstanding replies. Zero means
	// the default (100ms).
	ReplyTimeout time.Duration
	// Retries is how many times an unanswered request is re-sent before
	// the peer is declared unresponsive. Zero means the default (2); use
	// NoRetries (-1) for an explicit zero-retry run.
	Retries int
	// BackoffBase, when positive, inserts an exponential backoff sleep
	// before each retry attempt: base·2^(attempt-1), capped at BackoffMax,
	// with deterministic jitter in [0.5,1.5) drawn from a child of the
	// coordinator's random source. Zero disables backoff (retries fire
	// immediately after the reply timeout, as before).
	BackoffBase time.Duration
	// BackoffMax caps the backoff sleep. Zero means 10× BackoffBase.
	BackoffMax time.Duration
	// RoundBudget, when positive, bounds the total wall time of each
	// protocol round including all retries and backoff sleeps. A round
	// that exhausts its budget stops retrying and degrades (or fails with
	// an error wrapping ErrBudgetExceeded if it is below quorum). Zero
	// means unlimited.
	RoundBudget time.Duration
	// Obs is the optional observability sink: rounds emit trace spans and
	// KindProtocolRound events (reply counts), and the run's message /
	// retry / duplicate / timeout totals land in its counters. Nil
	// disables instrumentation; enabling it never changes the Result.
	Obs *obs.Obs
	// Cluster tunes the K-means iteration.
	Cluster cluster.Options
}

func (c Config) withDefaults() Config {
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = 100 * time.Millisecond
	}
	switch c.Retries {
	case 0:
		c.Retries = 2
	case NoRetries:
		c.Retries = 0
	}
	if c.BackoffBase > 0 && c.BackoffMax <= 0 {
		c.BackoffMax = 10 * c.BackoffBase
	}
	return c
}

// Validate reports whether the config is usable for numCaches caches.
func (c Config) Validate(numCaches int) error {
	switch {
	case c.L < 2:
		return fmt.Errorf("protocol: L must be >= 2, got %d", c.L)
	case c.M < 1:
		return fmt.Errorf("protocol: M must be >= 1, got %d", c.M)
	case c.M*(c.L-1) > numCaches:
		return fmt.Errorf("protocol: PLSet size M*(L-1)=%d exceeds %d caches", c.M*(c.L-1), numCaches)
	case c.K < 1 || c.K > numCaches:
		return fmt.Errorf("protocol: K=%d out of range [1,%d]", c.K, numCaches)
	case c.Theta < 0 || math.IsNaN(c.Theta):
		return fmt.Errorf("protocol: Theta must be >= 0, got %v", c.Theta)
	case c.Retries < NoRetries:
		return fmt.Errorf("protocol: Retries must be >= 0 (or NoRetries), got %d", c.Retries)
	case c.BackoffBase < 0:
		return fmt.Errorf("protocol: BackoffBase must be >= 0, got %v", c.BackoffBase)
	case c.BackoffMax < 0:
		return fmt.Errorf("protocol: BackoffMax must be >= 0, got %v", c.BackoffMax)
	case c.RoundBudget < 0:
		return fmt.Errorf("protocol: RoundBudget must be >= 0, got %v", c.RoundBudget)
	}
	return c.Cluster.Validate()
}

// Typed protocol failures. Run never panics and never blocks forever: it
// either returns a verified Result or an error wrapping one of these.
var (
	// ErrQuorum reports that a round gathered too few replies to proceed.
	ErrQuorum = errors.New("protocol: insufficient responses for quorum")
	// ErrBudgetExceeded reports that a round ran out of its RoundBudget.
	ErrBudgetExceeded = errors.New("protocol: round deadline budget exceeded")
)

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
	// Landmarks is the chosen landmark set (origin first).
	Landmarks []probe.Endpoint
	// Assignments maps each responsive cache to its group.
	Assignments map[topology.CacheIndex]int
	// Groups lists members per group ID.
	Groups [][]topology.CacheIndex
	// Centers are the final cluster centers in feature space.
	Centers []cluster.Vector
	// Unresponsive lists caches that never answered the feature round;
	// they are not part of any group.
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
	// TimedOutWaits counts reply waits that expired with requests still
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
	cfg        Config
	n          int
	transport  Transport
	inbox      <-chan Message
	src        *simrand.Source
	backoffSrc *simrand.Source
	seq        uint64

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
	return &Coordinator{
		cfg:        cfg.withDefaults(),
		n:          numCaches,
		transport:  transport,
		inbox:      transport.Register(CoordinatorAddr()),
		src:        src,
		backoffSrc: src.Split("backoff"),
	}, nil
}

// Run executes the five protocol rounds and returns the formed groups.
// It returns either a Result that passed the verify-layer conservation
// checks or a typed error (*RoundError / *verify.Error); it never panics
// and every wait is bounded by ReplyTimeout, Retries, and RoundBudget.
func (c *Coordinator) Run() (*Result, error) {
	// Round 1: PLSet probing.
	plIdx, err := c.src.SampleWithoutReplacement(c.n, c.cfg.M*(c.cfg.L-1))
	if err != nil {
		return nil, fmt.Errorf("sample PLSet: %w", err)
	}
	plset := make([]topology.CacheIndex, len(plIdx))
	for i, v := range plIdx {
		plset[i] = topology.CacheIndex(v)
	}
	plTargets := make([]probe.Endpoint, 0, len(plset)+1)
	plTargets = append(plTargets, probe.Origin())
	for _, ci := range plset {
		plTargets = append(plTargets, probe.Cache(ci))
	}
	plReplies, plOut := c.requestRound("plset", plset, plTargets)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "plset", int64(len(plReplies)))
	if len(plReplies) < c.cfg.L-1 {
		return nil, c.roundFailure("plset", plOut, fmt.Errorf("only %d of %d PLSet members responded, need >= %d",
			len(plReplies), len(plset), c.cfg.L-1))
	}

	// Round 2: landmark selection over the gathered matrix.
	landmarks := c.selectLandmarks(plset, plTargets, plReplies)

	// Round 3: feature probing by every cache.
	all := make([]topology.CacheIndex, c.n)
	for i := range all {
		all[i] = topology.CacheIndex(i)
	}
	featReplies, featOut := c.requestRound("features", all, landmarks)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "features", int64(len(featReplies)))
	if len(featReplies) < c.cfg.K {
		return nil, c.roundFailure("features", featOut, fmt.Errorf("only %d caches responded, need >= K=%d",
			len(featReplies), c.cfg.K))
	}

	// Round 4: clustering.
	responsive := make([]topology.CacheIndex, 0, len(featReplies))
	for _, ci := range all {
		if _, ok := featReplies[ci]; ok {
			responsive = append(responsive, ci)
		}
	}
	points := cluster.NewMatrix(len(responsive), len(landmarks))
	serverDist := make([]float64, len(responsive))
	for i, ci := range responsive {
		rtts := featReplies[ci]
		if len(rtts) != len(landmarks) {
			// A ragged reply previously surfaced as a cluster-validation
			// error; with the fixed-width matrix it is rejected up front.
			return nil, &RoundError{Round: "cluster", Err: fmt.Errorf(
				"cache %d returned %d measurements for %d landmarks", ci, len(rtts), len(landmarks))}
		}
		fv := points.Row(i)
		for j, v := range rtts {
			if v < 0 {
				v = 0 // failed single measurement: degrade, don't discard
			}
			fv[j] = v
		}
		serverDist[i] = fv[0] // landmark 0 is the origin
	}
	k := c.cfg.K
	if k > points.Rows() {
		k = points.Rows()
	}
	seeder := cluster.SDSLSeeder(serverDist, c.cfg.Theta)
	clustered, err := cluster.KMeansMatrix(points, k, seeder, c.cfg.Cluster, c.src.Split("kmeans"))
	if err != nil {
		return nil, &RoundError{Round: "cluster", Err: fmt.Errorf("cluster features: %w", err)}
	}

	res := &Result{
		Landmarks:       landmarks,
		Assignments:     make(map[topology.CacheIndex]int, len(responsive)),
		Groups:          make([][]topology.CacheIndex, k),
		Centers:         clustered.Centers,
		PLSetSize:       len(plset),
		PLSetResponsive: len(plReplies),
	}
	for i, ci := range responsive {
		g := clustered.Assignments[i]
		res.Assignments[ci] = g
		res.Groups[g] = append(res.Groups[g], ci)
	}
	for _, ci := range all {
		if _, ok := featReplies[ci]; !ok {
			res.Unresponsive = append(res.Unresponsive, ci)
		}
	}

	// Round 5: assignment broadcast with acknowledgements.
	res.UnackedAssignments = c.assignRound(res)
	c.cfg.Obs.EmitNow(obs.KindProtocolRound, "assign",
		int64(len(res.Assignments)-len(res.UnackedAssignments)))
	c.drainInbox()
	res.MessagesSent = c.sent
	res.Retries = c.retries
	res.DuplicateReplies = c.dups
	res.TimedOutWaits = c.timeouts
	res.Degraded = res.PLSetResponsive < res.PLSetSize ||
		len(res.Landmarks) < c.cfg.L ||
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

// verifyResult audits the run's conservation invariants through the
// verify layer before the result is handed out.
func (c *Coordinator) verifyResult(res *Result) error {
	sizes := make([]int, len(res.Groups))
	for g, members := range res.Groups {
		sizes[g] = len(members)
	}
	return verify.Protocol(verify.ProtocolData{
		NumCaches:        c.n,
		NumGroups:        len(res.Groups),
		GroupSizes:       sizes,
		Assigned:         len(res.Assignments),
		Unresponsive:     len(res.Unresponsive),
		Unacked:          len(res.UnackedAssignments),
		MessagesSent:     res.MessagesSent,
		Retries:          res.Retries,
		DuplicateReplies: res.DuplicateReplies,
		TimedOutWaits:    res.TimedOutWaits,
	})
}

// drainInbox counts the messages still queued after the final round as
// redundant, without blocking. Together with the rounds' uniform
// stale-message counting this makes DuplicateReplies equal to every
// message delivered to the coordinator minus the accepted ones — a
// quantity the transport's per-link fault streams fix deterministically.
func (c *Coordinator) drainInbox() {
	for {
		select {
		case _, ok := <-c.inbox:
			if !ok {
				return
			}
			c.dups++
		default:
			return
		}
	}
}

// roundOutcome records why a round stopped collecting replies.
type roundOutcome struct {
	budgetExceeded bool
	inboxClosed    bool
}

// roundFailure wraps a below-quorum round into the typed error chain.
func (c *Coordinator) roundFailure(round string, out roundOutcome, reason error) error {
	err := fmt.Errorf("%v: %w", reason, ErrQuorum)
	if out.budgetExceeded {
		err = fmt.Errorf("%w (%w after %v)", err, ErrBudgetExceeded, c.cfg.RoundBudget)
	}
	if out.inboxClosed {
		err = fmt.Errorf("%w (%w)", err, ErrTransportClosed)
	}
	return &RoundError{Round: round, Err: err}
}

// backoff sleeps the exponential-backoff delay before retry attempt
// `attempt` (>= 1). It returns false when the round budget is already
// exhausted. The jitter draw comes from a dedicated child stream, so the
// number of draws — and therefore every stream split off c.src — is a
// pure function of the retry schedule.
func (c *Coordinator) backoff(attempt int, budgetEnd time.Time) bool {
	if c.cfg.BackoffBase <= 0 {
		if budgetEnd.IsZero() {
			return true
		}
		//ecglint:allow detclock RoundBudget bounds a round by real elapsed time; wall clock is the point
		return time.Now().Before(budgetEnd)
	}
	exp := attempt - 1
	if exp > 16 {
		exp = 16 // 2^16 × base is past any sane BackoffMax; avoid overflow
	}
	d := c.cfg.BackoffBase << uint(exp)
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	d = time.Duration(float64(d) * (0.5 + c.backoffSrc.Float64()))
	if !budgetEnd.IsZero() {
		//ecglint:allow detclock clamping the backoff to the RoundBudget's wall-clock remainder
		remaining := time.Until(budgetEnd)
		if remaining <= 0 {
			return false
		}
		if d > remaining {
			d = remaining
		}
	}
	//ecglint:allow detclock retry backoff is a real delay against real transports; only the jitter draw feeds determinism and it comes from backoffSrc
	time.Sleep(d)
	return true
}

// budgetEnd returns the wall-clock end of the current round's budget
// (zero time when unbudgeted).
func (c *Coordinator) budgetEnd() time.Time {
	if c.cfg.RoundBudget <= 0 {
		return time.Time{}
	}
	//ecglint:allow detclock RoundBudget anchors the round deadline to the wall clock by design
	return time.Now().Add(c.cfg.RoundBudget)
}

// waitWindow clamps the per-attempt reply timeout to the remaining round
// budget. ok is false when the budget is exhausted.
func (c *Coordinator) waitWindow(budgetEnd time.Time) (time.Duration, bool) {
	wait := c.cfg.ReplyTimeout
	if budgetEnd.IsZero() {
		return wait, true
	}
	//ecglint:allow detclock the reply window is clamped to the RoundBudget's wall-clock remainder
	remaining := time.Until(budgetEnd)
	if remaining <= 0 {
		return 0, false
	}
	if remaining < wait {
		wait = remaining
	}
	return wait, true
}

// requestRound sends probe requests for targets to every peer, retrying
// unanswered peers (with backoff) inside the round budget, and returns
// the RTT vectors keyed by cache index.
func (c *Coordinator) requestRound(name string, peers []topology.CacheIndex, targets []probe.Endpoint) (map[topology.CacheIndex][]float64, roundOutcome) {
	defer c.cfg.Obs.StartSpan("protocol-" + name)()
	var out roundOutcome
	replies := make(map[topology.CacheIndex][]float64, len(peers))
	pending := make(map[topology.CacheIndex]bool, len(peers))
	for _, p := range peers {
		pending[p] = true
	}
	seqOf := make(map[uint64]topology.CacheIndex)
	budgetEnd := c.budgetEnd()

	for attempt := 0; attempt <= c.cfg.Retries && len(pending) > 0; attempt++ {
		if attempt > 0 {
			if !c.backoff(attempt, budgetEnd) {
				out.budgetExceeded = true
				break
			}
			c.retries += int64(len(pending))
		}
		// Iterate peers in their given order so sequence numbers, and the
		// per-link traffic they generate, are schedule-independent.
		for _, p := range peers {
			if !pending[p] {
				continue
			}
			c.seq++
			seqOf[c.seq] = p
			c.sent++
			//ecglint:allow errdrop lost probe requests are re-sent by the retry loop and counted in c.retries
			_ = c.transport.Send(Message{
				Kind:    MsgProbeRequest,
				From:    CoordinatorAddr(),
				To:      CacheAddr(p),
				Seq:     c.seq,
				Targets: targets,
			})
		}
		wait, ok := c.waitWindow(budgetEnd)
		if !ok {
			out.budgetExceeded = true
			break
		}
		//ecglint:allow detclock reply timeout against a real transport; bounded by RoundBudget
		deadline := time.After(wait)
	wait:
		for len(pending) > 0 {
			select {
			case msg, ok := <-c.inbox:
				if !ok {
					out.inboxClosed = true
					return replies, out
				}
				// Anything that is not a fresh answer to a pending request of
				// this round — a duplicated delivery, a late reply to an
				// answered or older request, a malformed reply — counts as
				// redundant. Counting uniformly (rather than skipping stale
				// kinds) keeps the counter equal to delivered-minus-accepted,
				// which is schedule-independent.
				p, known := seqOf[msg.Seq]
				if !known || !pending[p] || msg.Kind != MsgProbeReply || len(msg.RTTs) != len(targets) {
					c.dups++
					continue
				}
				replies[p] = msg.RTTs
				delete(pending, p)
			case <-deadline:
				c.timeouts++
				break wait
			}
		}
	}
	return replies, out
}

// selectLandmarks runs the greedy max-min selection over the PLSet's
// measured matrix. plTargets[0] is the origin; plTargets[i+1] is plset[i].
func (c *Coordinator) selectLandmarks(plset []topology.CacheIndex, plTargets []probe.Endpoint, replies map[topology.CacheIndex][]float64) []probe.Endpoint {
	dist := symmetricPLSetMatrix(plset, plTargets, replies)
	n := len(plTargets)

	responsive := func(i int) bool {
		if i == 0 {
			return true
		}
		_, ok := replies[plset[i-1]]
		return ok
	}

	chosen := []int{0}
	inSet := make([]bool, n)
	inSet[0] = true
	minToSet := make([]float64, n)
	for i := range minToSet {
		minToSet[i] = dist[i][0]
	}
	for len(chosen) < c.cfg.L {
		best := -1
		for i := 1; i < n; i++ {
			if inSet[i] || !responsive(i) {
				continue
			}
			if best < 0 || minToSet[i] > minToSet[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		inSet[best] = true
		for i := range minToSet {
			if d := dist[i][best]; d < minToSet[i] {
				minToSet[i] = d
			}
		}
	}
	out := make([]probe.Endpoint, len(chosen))
	for i, idx := range chosen {
		out[i] = plTargets[idx]
	}
	return out
}

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

// assignRound broadcasts assignments and collects acknowledgements,
// retrying unacked peers with the same backoff and budget discipline as
// the request rounds. It returns the caches that never acked, ascending.
func (c *Coordinator) assignRound(res *Result) []topology.CacheIndex {
	defer c.cfg.Obs.StartSpan("protocol-assign")()
	order := make([]topology.CacheIndex, 0, len(res.Assignments))
	for ci := range res.Assignments {
		order = append(order, ci)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	pending := make(map[topology.CacheIndex]bool, len(order))
	for _, ci := range order {
		pending[ci] = true
	}
	seqOf := make(map[uint64]topology.CacheIndex)
	budgetEnd := c.budgetEnd()

	for attempt := 0; attempt <= c.cfg.Retries && len(pending) > 0; attempt++ {
		if attempt > 0 {
			if !c.backoff(attempt, budgetEnd) {
				break
			}
			c.retries += int64(len(pending))
		}
		for _, ci := range order {
			if !pending[ci] {
				continue
			}
			g := res.Assignments[ci]
			c.seq++
			seqOf[c.seq] = ci
			c.sent++
			//ecglint:allow errdrop lost assigns are re-sent by the retry loop and counted in c.retries
			_ = c.transport.Send(Message{
				Kind:    MsgAssign,
				From:    CoordinatorAddr(),
				To:      CacheAddr(ci),
				Seq:     c.seq,
				Group:   g,
				Members: res.Groups[g],
			})
		}
		wait, ok := c.waitWindow(budgetEnd)
		if !ok {
			break
		}
		//ecglint:allow detclock assign-ack timeout against a real transport; bounded by RoundBudget
		deadline := time.After(wait)
	wait:
		for len(pending) > 0 {
			select {
			case msg, ok := <-c.inbox:
				if !ok {
					break wait
				}
				ci, known := seqOf[msg.Seq]
				if !known || !pending[ci] || msg.Kind != MsgAssignAck {
					c.dups++ // see requestRound: uniform redundant-message counting
					continue
				}
				delete(pending, ci)
			case <-deadline:
				c.timeouts++
				break wait
			}
		}
	}
	unacked := make([]topology.CacheIndex, 0, len(pending))
	for _, ci := range order {
		if pending[ci] {
			unacked = append(unacked, ci)
		}
	}
	if len(unacked) == 0 {
		return nil
	}
	return unacked
}
