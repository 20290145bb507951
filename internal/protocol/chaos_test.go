package protocol

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// chaosCaches is the network size of the chaos matrix: small enough to
// run the whole matrix in well under a second, large enough for
// partitions and crashes to bite.
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

// faultStack builds a fresh fault transport with registered agents over
// the shared prober.
func faultStack(t *testing.T, fc FaultConfig, seed int64) *ChanTransport {
	t.Helper()
	prober := sharedProber(t)
	tr, err := NewFaultTransport(fc, simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	startAgents(t, chaosCaches, prober, tr)
	return tr
}

func chaosCfg() Config {
	return Config{L: 4, M: 2, K: 3, Retries: 6}
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
	if got := len(res.Members) + len(res.Unresponsive); got != n {
		t.Fatalf("conservation violated: %d assigned + %d unresponsive != %d",
			len(res.Members), len(res.Unresponsive), n)
	}
	if err := res.Plan.Verify(nil); err != nil {
		t.Fatalf("plan fails verification: %v", err)
	}
	if res.Plan.NumCaches() != len(res.Members) || !slices.IsSorted(res.Members) {
		t.Fatalf("plan has %d rows for members %v, want one row per member, ascending",
			res.Plan.NumCaches(), res.Members)
	}
	assigned := assignmentMap(res)
	covered := 0
	for g, members := range res.Groups() {
		if len(members) == 0 {
			t.Fatalf("group %d empty", g)
		}
		for _, ci := range members {
			if assigned[ci] != g {
				t.Fatalf("cache %d in group %d's member list but assigned to %d",
					ci, g, assigned[ci])
			}
		}
		covered += len(members)
	}
	if covered != len(res.Members) {
		t.Fatalf("groups cover %d caches, assignments %d", covered, len(res.Members))
	}
	if !slices.IsSorted(res.UnackedAssignments) {
		t.Fatalf("unacked assignments not ascending: %v", res.UnackedAssignments)
	}
	for _, ci := range res.UnackedAssignments {
		if _, ok := assigned[ci]; !ok {
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
		!errors.Is(err, ErrQuorum) && !errors.Is(err, ErrTransportClosed) {
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
// determinism contract end to end. The Result is also pinned to literals.
func TestChaosDeterministicReplay(t *testing.T) {
	fc := FaultConfig{Loss: 0.2, DupProb: 0.25, DelayProb: 0.3}
	run := func() (*Result, error) {
		tr := faultStack(t, fc, 9001)
		tr.KillAfter(CacheAddr(7), 3)
		tr.Partition(CacheAddr(22), CacheAddr(23))
		coord, err := NewCoordinator(chaosCfg(), chaosCaches, tr, simrand.New(9002))
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
		t.Fatalf("pinned scenario failed: %v", errA)
	}
	if diff := diffResults(resA, resB); diff != "" {
		t.Fatalf("same seed produced different results: %s", diff)
	}
	// A delayed copy is released when the transport drains, so delay
	// reorders replies instead of losing their attempts: the plan is the
	// same as when held copies waited for a later send on their link, with
	// fewer retries.
	want := golden{
		landmarks:       "[Os Ec19 Ec9 Ec21]",
		sizes:           "[7 9 6]",
		unresponsive:    "[22 23]",
		unacked:         "[]",
		sent:            97,
		retries:         45,
		dups:            29,
		timeouts:        18,
		plsetSize:       6,
		plsetResponsive: 5,
		degraded:        true,
		digest:          0x3a089ce1684a7ef5,
	}
	if got := goldenOf(resA); got != want {
		t.Fatalf("chaos replay drifted:\n got %+v\nwant %+v", got, want)
	}
}

// diffResults reports the first field where two Results differ ("" when
// bit-identical), so determinism failures name the diverging counter.
func diffResults(a, b *Result) string {
	if fmt.Sprintf("%+v", a.Plan.Landmarks) != fmt.Sprintf("%+v", b.Plan.Landmarks) {
		return fmt.Sprintf("landmarks %v vs %v", a.Plan.Landmarks, b.Plan.Landmarks)
	}
	if fmt.Sprintf("%v", a.Members) != fmt.Sprintf("%v", b.Members) {
		return fmt.Sprintf("members %v vs %v", a.Members, b.Members)
	}
	if ca, cb := a.Plan.Checksum(), b.Plan.Checksum(); ca != cb {
		return fmt.Sprintf("plan checksum %016x vs %016x", ca, cb)
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

// TestNoRetriesSentinel: Retries is taken as given, so Retries: 0 is a
// single-attempt run and a negative count is rejected.
func TestNoRetriesSentinel(t *testing.T) {
	cfg := chaosCfg()
	cfg.Retries = -1
	if err := cfg.Validate(chaosCaches); err == nil {
		t.Fatal("Retries=-1 accepted")
	}

	// End to end: a single-attempt run on a lossy transport must never
	// re-send — exactly one message per peer per round.
	cfg.Retries = 0
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
		t.Fatalf("Retries=0 run recorded %d retries", res.Retries)
	}
	plset := cfg.M * (cfg.L - 1)
	want := int64(plset + chaosCaches + len(res.Members))
	if res.MessagesSent != want {
		t.Fatalf("single-attempt run sent %d messages, want exactly %d", res.MessagesSent, want)
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
