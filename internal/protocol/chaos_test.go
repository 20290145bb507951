package protocol

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// chaosCaches is the network size of the chaos matrix. Small enough that
// the coordinator's mailbox never overflows (overflow order would depend
// on reader speed), large enough for partitions and crashes to bite.
const chaosCaches = 24

var (
	chaosOnce   sync.Once
	chaosProber *probe.Prober
	chaosSetup  error
)

// sharedProber builds one network and prober for the whole chaos matrix.
// Prober.Measure is a pure function of (seed, endpoint pair) and safe for
// concurrent use, so every scenario can share it.
func sharedProber(t *testing.T) *probe.Prober {
	t.Helper()
	chaosOnce.Do(func() {
		g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(7001))
		if err != nil {
			chaosSetup = err
			return
		}
		nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: chaosCaches}, simrand.New(7002))
		if err != nil {
			chaosSetup = err
			return
		}
		chaosProber, chaosSetup = probe.NewProber(nw, probe.DefaultConfig(), simrand.New(7003))
	})
	if chaosSetup != nil {
		t.Fatal(chaosSetup)
	}
	return chaosProber
}

// faultStack builds a fresh fault transport with running agents over the
// shared prober.
func faultStack(t *testing.T, fc FaultConfig, seed int64) *ChanTransport {
	t.Helper()
	prober := sharedProber(t)
	tr, err := NewFaultTransport(fc, simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, chaosCaches)
	for i := range agents {
		a, err := NewAgent(topology.CacheIndex(i), prober, tr)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	t.Cleanup(func() {
		for _, a := range agents {
			a.Stop()
		}
		tr.Close()
	})
	return tr
}

func chaosCfg() Config {
	return Config{
		L: 4, M: 2, K: 3,
		ReplyTimeout: 150 * time.Millisecond,
		Retries:      6,
		BackoffBase:  time.Millisecond,
		RoundBudget:  20 * time.Second,
	}
}

// runProtocol executes coord.Run under a watchdog: a hang past the
// timeout or a panic fails the test rather than wedging the suite.
func runProtocol(t *testing.T, coord *Coordinator, timeout time.Duration) (*Result, error) {
	t.Helper()
	type outcome struct {
		res      *Result
		err      error
		panicked any
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{panicked: r}
			}
		}()
		res, err := coord.Run()
		ch <- outcome{res: res, err: err}
	}()
	select {
	case o := <-ch:
		if o.panicked != nil {
			t.Fatalf("protocol panicked: %v", o.panicked)
		}
		return o.res, o.err
	case <-time.After(timeout):
		t.Fatalf("protocol hung past %v", timeout)
	}
	return nil, nil
}

// assertValidResult checks the conservation invariants a completed run
// must satisfy regardless of how hostile the transport was.
func assertValidResult(t *testing.T, res *Result, n int) {
	t.Helper()
	if got := len(res.Assignments) + len(res.Unresponsive); got != n {
		t.Fatalf("conservation violated: %d assigned + %d unresponsive != %d",
			len(res.Assignments), len(res.Unresponsive), n)
	}
	covered := 0
	for g, members := range res.Groups {
		if len(members) == 0 {
			t.Fatalf("group %d empty", g)
		}
		for _, ci := range members {
			if res.Assignments[ci] != g {
				t.Fatalf("cache %d in group %d's member list but assigned to %d",
					ci, g, res.Assignments[ci])
			}
		}
		covered += len(members)
	}
	if covered != len(res.Assignments) {
		t.Fatalf("groups cover %d caches, assignments %d", covered, len(res.Assignments))
	}
	if !sort.SliceIsSorted(res.UnackedAssignments, func(i, j int) bool {
		return res.UnackedAssignments[i] < res.UnackedAssignments[j]
	}) {
		t.Fatalf("unacked assignments not ascending: %v", res.UnackedAssignments)
	}
	for _, ci := range res.UnackedAssignments {
		if _, ok := res.Assignments[ci]; !ok {
			t.Fatalf("unacked cache %d has no assignment", ci)
		}
	}
	if res.Retries < 0 || res.DuplicateReplies < 0 || res.TimedOutWaits < 0 || res.MessagesSent <= 0 {
		t.Fatalf("bad counters: %+v", res)
	}
}

// assertTypedFailure checks that a failed run surfaced a *RoundError
// wrapping one of the protocol's failure sentinels.
func assertTypedFailure(t *testing.T, err error) {
	t.Helper()
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("protocol failure is not a *RoundError: %v", err)
	}
	if re.Round == "" {
		t.Fatalf("RoundError has no round name: %v", err)
	}
	if re.Round != "cluster" &&
		!errors.Is(err, ErrQuorum) && !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("round %q failure wraps no known sentinel: %v", re.Round, err)
	}
}

// TestChaosMatrix crosses message loss, duplication, delay/reordering,
// partitions, and crashes (upfront and mid-run), asserting that every
// combination either completes with a conservation-valid Plan or fails
// with a typed error — never panics, never hangs.
func TestChaosMatrix(t *testing.T) {
	type disruption struct {
		name  string
		apply func(tr *ChanTransport)
	}
	disruptions := []disruption{
		{name: "calm", apply: func(*ChanTransport) {}},
		{name: "partition", apply: func(tr *ChanTransport) {
			tr.Partition(CacheAddr(18), CacheAddr(19), CacheAddr(20),
				CacheAddr(21), CacheAddr(22), CacheAddr(23))
		}},
		{name: "crash", apply: func(tr *ChanTransport) {
			for _, ci := range []topology.CacheIndex{20, 21, 22, 23} {
				tr.Kill(CacheAddr(ci))
			}
		}},
		{name: "crash-midrun", apply: func(tr *ChanTransport) {
			tr.KillAfter(CacheAddr(5), 2)
			tr.KillAfter(CacheAddr(6), 1)
		}},
	}
	idx := 0
	for _, loss := range []float64{0, 0.3} {
		for _, dup := range []float64{0, 0.25} {
			for _, delay := range []float64{0, 0.3} {
				for _, d := range disruptions {
					idx++
					seed := int64(8000 + idx)
					fc := FaultConfig{Loss: loss, DupProb: dup, DelayProb: delay}
					name := fmt.Sprintf("loss=%v,dup=%v,delay=%v,%s", loss, dup, delay, d.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						tr := faultStack(t, fc, seed)
						d.apply(tr)
						coord, err := NewCoordinator(chaosCfg(), chaosCaches, tr, simrand.New(seed+100000))
						if err != nil {
							t.Fatal(err)
						}
						res, err := runProtocol(t, coord, 30*time.Second)
						if err != nil {
							assertTypedFailure(t, err)
							return
						}
						assertValidResult(t, res, chaosCaches)
					})
				}
			}
		}
	}
}

// TestChaosDeterministicReplay runs the same hostile scenario twice with
// identical seeds and demands bit-identical Results — including the retry,
// duplicate, and timeout counters — exercising the per-link fault-stream
// determinism contract end to end.
func TestChaosDeterministicReplay(t *testing.T) {
	fc := FaultConfig{Loss: 0.2, DupProb: 0.25, DelayProb: 0.3}
	run := func() (*Result, error) {
		tr := faultStack(t, fc, 9001)
		tr.KillAfter(CacheAddr(7), 3)
		tr.Partition(CacheAddr(22), CacheAddr(23))
		cfg := chaosCfg()
		cfg.ReplyTimeout = 300 * time.Millisecond
		coord, err := NewCoordinator(cfg, chaosCaches, tr, simrand.New(9002))
		if err != nil {
			t.Fatal(err)
		}
		return runProtocol(t, coord, 30*time.Second)
	}
	resA, errA := run()
	resB, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("same seed diverged: errA=%v errB=%v", errA, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			t.Fatalf("same seed produced different errors:\n%v\n%v", errA, errB)
		}
		return
	}
	if diff := diffResults(resA, resB); diff != "" {
		t.Fatalf("same seed produced different results: %s", diff)
	}
}

// diffResults reports the first field where two Results differ ("" when
// bit-identical), so determinism failures name the diverging counter.
func diffResults(a, b *Result) string {
	if fmt.Sprintf("%+v", a.Landmarks) != fmt.Sprintf("%+v", b.Landmarks) {
		return fmt.Sprintf("landmarks %v vs %v", a.Landmarks, b.Landmarks)
	}
	if fmt.Sprintf("%v", a.Assignments) != fmt.Sprintf("%v", b.Assignments) {
		return fmt.Sprintf("assignments %v vs %v", a.Assignments, b.Assignments)
	}
	if fmt.Sprintf("%v", a.Groups) != fmt.Sprintf("%v", b.Groups) {
		return fmt.Sprintf("groups %v vs %v", a.Groups, b.Groups)
	}
	if fmt.Sprintf("%v", a.Centers) != fmt.Sprintf("%v", b.Centers) {
		return "centers differ"
	}
	if fmt.Sprintf("%v", a.Unresponsive) != fmt.Sprintf("%v", b.Unresponsive) {
		return fmt.Sprintf("unresponsive %v vs %v", a.Unresponsive, b.Unresponsive)
	}
	if fmt.Sprintf("%v", a.UnackedAssignments) != fmt.Sprintf("%v", b.UnackedAssignments) {
		return fmt.Sprintf("unacked %v vs %v", a.UnackedAssignments, b.UnackedAssignments)
	}
	type counters struct {
		Sent, Retries, Dups, Timeouts int64
		PLSize, PLResp                int
		Degraded                      bool
	}
	ca := counters{a.MessagesSent, a.Retries, a.DuplicateReplies, a.TimedOutWaits, a.PLSetSize, a.PLSetResponsive, a.Degraded}
	cb := counters{b.MessagesSent, b.Retries, b.DuplicateReplies, b.TimedOutWaits, b.PLSetSize, b.PLSetResponsive, b.Degraded}
	if ca != cb {
		return fmt.Sprintf("counters %+v vs %+v", ca, cb)
	}
	return ""
}

// TestRunLossSweepConservation sweeps the loss probability and asserts
// the responsive/unresponsive accounting stays conserved at every level.
func TestRunLossSweepConservation(t *testing.T) {
	for i, loss := range []float64{0, 0.1, 0.25, 0.4} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			t.Parallel()
			tr := faultStack(t, FaultConfig{Loss: loss}, int64(9100+i))
			coord, err := NewCoordinator(chaosCfg(), chaosCaches, tr, simrand.New(int64(9200+i)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := runProtocol(t, coord, 30*time.Second)
			if err != nil {
				assertTypedFailure(t, err)
				return
			}
			assertValidResult(t, res, chaosCaches)
			if loss == 0 && (res.Retries != 0 || res.DuplicateReplies != 0 || len(res.Unresponsive) != 0) {
				t.Fatalf("lossless run reported faults: %+v", res)
			}
			if loss >= 0.25 && res.Retries == 0 {
				t.Fatalf("%v loss but no retries recorded", loss)
			}
		})
	}
}

// TestNoRetriesSentinel covers the Retries=0 remapping bug: the zero
// value still means "default", and the NoRetries sentinel now expresses
// an explicit single-attempt run.
func TestNoRetriesSentinel(t *testing.T) {
	if got := (Config{}).withDefaults().Retries; got != 2 {
		t.Fatalf("zero-value Retries defaulted to %d, want 2", got)
	}
	if got := (Config{Retries: NoRetries}).withDefaults().Retries; got != 0 {
		t.Fatalf("NoRetries mapped to %d retries, want 0", got)
	}
	if got := (Config{Retries: 5}).withDefaults().Retries; got != 5 {
		t.Fatalf("explicit Retries changed to %d, want 5", got)
	}
	cfg := chaosCfg()
	if err := (Config{L: cfg.L, M: cfg.M, K: cfg.K, Retries: NoRetries}).Validate(chaosCaches); err != nil {
		t.Fatalf("NoRetries rejected: %v", err)
	}

	// End to end: a single-attempt run on a lossy transport must never
	// re-send — exactly one message per peer per round.
	cfg.Retries = NoRetries
	tr := faultStack(t, FaultConfig{Loss: 0.15}, 9300)
	coord, err := NewCoordinator(cfg, chaosCaches, tr, simrand.New(9301))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runProtocol(t, coord, 30*time.Second)
	if err != nil {
		assertTypedFailure(t, err) // a one-shot round may miss quorum; that is a valid outcome
		return
	}
	assertValidResult(t, res, chaosCaches)
	if res.Retries != 0 {
		t.Fatalf("NoRetries run recorded %d retries", res.Retries)
	}
	plset := cfg.M * (cfg.L - 1)
	want := int64(plset + chaosCaches + len(res.Assignments))
	if res.MessagesSent != want {
		t.Fatalf("single-attempt run sent %d messages, want exactly %d", res.MessagesSent, want)
	}
}

// TestRoundBudgetExceeded starves the PLSet round of both replies and
// budget and asserts the typed failure chain names everything: the round,
// the quorum miss, and the exhausted budget.
func TestRoundBudgetExceeded(t *testing.T) {
	tr := faultStack(t, FaultConfig{}, 9400)
	for i := 0; i < chaosCaches; i++ {
		tr.Kill(CacheAddr(topology.CacheIndex(i)))
	}
	cfg := chaosCfg()
	cfg.ReplyTimeout = 50 * time.Millisecond
	cfg.RoundBudget = time.Millisecond
	coord, err := NewCoordinator(cfg, chaosCaches, tr, simrand.New(9401))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runProtocol(t, coord, 30*time.Second)
	if err == nil {
		t.Fatal("run succeeded with every cache dead and a 1ms budget")
	}
	var re *RoundError
	if !errors.As(err, &re) || re.Round != "plset" {
		t.Fatalf("expected plset RoundError, got %v", err)
	}
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("budget failure does not wrap ErrQuorum: %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget failure does not wrap ErrBudgetExceeded: %v", err)
	}
}

// TestBackoffScheduleDeterministic checks the jittered exponential
// schedule directly: growth up to the cap, jitter within [0.5,1.5), and
// identical draws for identical seeds.
func TestBackoffScheduleDeterministic(t *testing.T) {
	mk := func() *Coordinator {
		return &Coordinator{
			cfg: Config{
				BackoffBase: time.Millisecond,
				BackoffMax:  8 * time.Millisecond,
			},
			backoffSrc: simrand.New(77).Split("backoff"),
		}
	}
	sample := func(c *Coordinator) []time.Duration {
		var out []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			base := c.cfg.BackoffBase << uint(attempt-1)
			if base > c.cfg.BackoffMax {
				base = c.cfg.BackoffMax
			}
			d := time.Duration(float64(base) * (0.5 + c.backoffSrc.Float64()))
			if d < base/2 || d >= base+base/2 {
				t.Fatalf("attempt %d: jittered %v outside [%v,%v)", attempt, d, base/2, base+base/2)
			}
			out = append(out, d)
		}
		return out
	}
	a, b := sample(mk()), sample(mk())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff schedule not deterministic: %v vs %v", a, b)
		}
	}
}

// TestStagesRecordProtocolRounds attaches an Obs and asserts each round's
// span histogram and the run counters match the Result.
func TestStagesRecordProtocolRounds(t *testing.T) {
	o := obs.New()
	cfg := chaosCfg()
	cfg.Obs = o
	tr := faultStack(t, FaultConfig{Loss: 0.15}, 9500)
	coord, err := NewCoordinator(cfg, chaosCaches, tr, simrand.New(9501))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runProtocol(t, coord, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	for _, name := range []string{"plset", "features", "assign"} {
		if got := snap.Histograms["stage_protocol_"+name+"_ms"].Count; got != 1 {
			t.Fatalf("stage_protocol_%s_ms count = %d, want 1", name, got)
		}
	}
	for name, want := range map[string]int64{
		"protocol_retries_total":           res.Retries,
		"protocol_duplicate_replies_total": res.DuplicateReplies,
		"protocol_timed_out_waits_total":   res.TimedOutWaits,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, result has %d", name, got, want)
		}
	}
	if res.Retries == 0 {
		t.Fatal("15% loss but zero retries; run counters untested")
	}
}

// TestSymmetricPLSetMatrix covers the landmark distance-matrix fill: both
// measured directions must be averaged into BOTH triangle entries (the
// old fill left dist[j][i] holding a single direction whenever it was
// written first, skewing the max-min selection).
func TestSymmetricPLSetMatrix(t *testing.T) {
	plset := []topology.CacheIndex{4, 9}
	plTargets := []probe.Endpoint{probe.Origin(), probe.Cache(4), probe.Cache(9)}
	replies := map[topology.CacheIndex][]float64{
		4: {10, 0, 6}, // cache 4 measured: origin=10, self=0, cache9=6
		9: {20, 8, 0}, // cache 9 measured: origin=20, cache4=8, self=0
	}
	dist := symmetricPLSetMatrix(plset, plTargets, replies)
	for i := range dist {
		for j := range dist[i] {
			if dist[i][j] != dist[j][i] {
				t.Fatalf("matrix asymmetric at (%d,%d): %v vs %v", i, j, dist[i][j], dist[j][i])
			}
		}
	}
	if dist[0][1] != 10 { // only cache 4 measured the origin leg
		t.Fatalf("dist[0][1] = %v, want 10", dist[0][1])
	}
	if dist[0][2] != 20 {
		t.Fatalf("dist[0][2] = %v, want 20", dist[0][2])
	}
	if dist[1][2] != 7 { // mean of the two directions (6 and 8)
		t.Fatalf("dist[1][2] = %v, want 7", dist[1][2])
	}

	// A failed direction (negative sentinel) falls back to the other one;
	// a fully unmeasured pair stays 0.
	replies[4][2] = -1
	dist = symmetricPLSetMatrix(plset, plTargets, replies)
	if dist[1][2] != 8 || dist[2][1] != 8 {
		t.Fatalf("one-directional pair = %v/%v, want 8/8", dist[1][2], dist[2][1])
	}
	delete(replies, 9)
	dist = symmetricPLSetMatrix(plset, plTargets, replies)
	if dist[1][2] != 0 {
		t.Fatalf("unmeasured pair = %v, want 0", dist[1][2])
	}
}
