package protocol

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// stack builds a network, prober, transport, and registered agents.
func stack(t *testing.T, numCaches int, seed int64, loss float64) (*topology.Network, *ChanTransport, []*Agent) {
	t.Helper()
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: numCaches}, simrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	prober, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	var lossSrc *simrand.Source
	if loss > 0 {
		lossSrc = simrand.New(seed + 3)
	}
	tr, err := NewFaultTransport(FaultConfig{Loss: loss}, lossSrc)
	if err != nil {
		t.Fatal(err)
	}
	return nw, tr, startAgents(t, numCaches, prober, tr)
}

// startAgents registers one agent per cache on tr; cleanup closes tr.
func startAgents(t *testing.T, numCaches int, prober *probe.Prober, tr *ChanTransport) []*Agent {
	t.Helper()
	agents := make([]*Agent, numCaches)
	for i := range agents {
		a, err := NewAgent(topology.CacheIndex(i), prober, tr)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	t.Cleanup(tr.Close)
	return agents
}

// assignmentMap maps each plan member's cache index to its group.
func assignmentMap(res *Result) map[topology.CacheIndex]int {
	m := make(map[topology.CacheIndex]int, len(res.Members))
	for i, ci := range res.Members {
		m[ci] = res.Plan.Assignments[i]
	}
	return m
}

func defaultCfg(k int) Config {
	return Config{L: 6, M: 3, K: k, Retries: 3}
}

func TestAddrAndKindStrings(t *testing.T) {
	if CoordinatorAddr().String() != "coordinator" {
		t.Fatal("coordinator addr string")
	}
	if CacheAddr(3).String() != "cache-3" {
		t.Fatal("cache addr string")
	}
	if !CoordinatorAddr().IsCoordinator() || CacheAddr(1).IsCoordinator() {
		t.Fatal("IsCoordinator")
	}
	if CacheAddr(5).Cache() != 5 {
		t.Fatal("Cache()")
	}
	for k, want := range map[MsgKind]string{
		MsgProbeRequest: "probe-request",
		MsgProbeReply:   "probe-reply",
		MsgAssign:       "assign",
		MsgAssignAck:    "assign-ack",
		MsgKind(99):     "MsgKind(99)",
	} {
		if k.String() != want {
			t.Fatalf("kind %d string = %q", k, k.String())
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := defaultCfg(5)
	if err := ok.Validate(60); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{L: 1, M: 1, K: 2},
		{L: 4, M: 0, K: 2},
		{L: 20, M: 4, K: 2}, // PLSet too big for n=60
		{L: 4, M: 2, K: 0},
		{L: 4, M: 2, K: 61},
		{L: 4, M: 2, K: 2, Theta: -1},
		{L: 4, M: 2, K: 2, Theta: math.NaN()}, // NaN would silently seed SL
		{L: 4, M: 2, K: 2, Retries: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(60); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTransportBasics(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultTransport(FaultConfig{Loss: 1}, nil); err == nil {
		t.Fatal("Loss=1 accepted")
	}
	got := collect(tr, CacheAddr(1))
	if err := tr.Send(Message{To: CacheAddr(1), Kind: MsgAssign}); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatal("message handled before Flush")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0].Kind != MsgAssign {
		t.Fatalf("delivered %v, want one assign", *got)
	}
	if err := tr.Send(Message{To: CacheAddr(9)}); err == nil {
		t.Fatal("send to unregistered addr accepted")
	}
	// Killed node swallows silently.
	tr.Kill(CacheAddr(1))
	if err := tr.Send(Message{To: CacheAddr(1)}); err != nil {
		t.Fatalf("send to killed node errored: %v", err)
	}
	if err := tr.Flush(); err != nil || len(*got) != 1 {
		t.Fatalf("killed node received a message (flush err %v)", err)
	}
	tr.Close()
	if err := tr.Send(Message{To: CacheAddr(1)}); err != ErrTransportClosed {
		t.Fatalf("send after close = %v", err)
	}
	if err := tr.Flush(); err != ErrTransportClosed {
		t.Fatalf("flush after close = %v", err)
	}
	tr.Close() // idempotent
}

func TestRunFormsCompleteGroups(t *testing.T) {
	_, tr, agents := stack(t, 40, 400, 0)
	coord, err := NewCoordinator(defaultCfg(5), 40, tr, simrand.New(401))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lms := res.Plan.Landmarks; len(lms) != 6 || !lms[0].IsOrigin() {
		t.Fatalf("landmarks = %v", lms)
	}
	if len(res.Unresponsive) != 0 {
		t.Fatalf("unresponsive = %v on a lossless transport", res.Unresponsive)
	}
	if len(res.UnackedAssignments) != 0 {
		t.Fatalf("unacked = %v on a lossless transport", res.UnackedAssignments)
	}
	if len(res.Members) != 40 {
		t.Fatalf("assignments cover %d caches", len(res.Members))
	}
	covered := 0
	for g, members := range res.Groups() {
		if len(members) == 0 {
			t.Fatalf("group %d empty", g)
		}
		covered += len(members)
	}
	if covered != 40 {
		t.Fatalf("groups cover %d caches", covered)
	}
	// Every agent applied its assignment and got its member list.
	assigned := assignmentMap(res)
	for i, a := range agents {
		group, members := a.Group()
		if want := assigned[topology.CacheIndex(i)]; group != want {
			t.Fatalf("agent %d group %d != coordinator's %d", i, group, want)
		}
		if len(members) == 0 {
			t.Fatalf("agent %d has empty member list", i)
		}
	}
	if res.MessagesSent <= 0 {
		t.Fatal("no messages counted")
	}
}

func TestRunProducesProximityCoherentGroups(t *testing.T) {
	nw, tr, _ := stack(t, 80, 402, 0)
	coord, err := NewCoordinator(defaultCfg(8), 80, tr, simrand.New(403))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	protoCost := metrics.AvgGroupInteractionCost(nw, res.Groups())

	src := simrand.New(404)
	randGroups := make([][]topology.CacheIndex, 8)
	for i := 0; i < 80; i++ {
		g := src.Intn(8)
		randGroups[g] = append(randGroups[g], topology.CacheIndex(i))
	}
	randCost := metrics.AvgGroupInteractionCost(nw, randGroups)
	if protoCost >= randCost {
		t.Fatalf("protocol groups (%v) no better than random (%v)", protoCost, randCost)
	}
}

func TestRunSurvivesMessageLoss(t *testing.T) {
	_, tr, _ := stack(t, 40, 405, 0.2)
	cfg := defaultCfg(4)
	cfg.Retries = 8
	coord, err := NewCoordinator(cfg, 40, tr, simrand.New(406))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With 20% loss and 8 retries, nearly everyone should make it.
	if len(res.Members) < 35 {
		t.Fatalf("only %d/40 caches assigned under 20%% loss", len(res.Members))
	}
}

func TestRunHandlesCrashedCaches(t *testing.T) {
	_, tr, _ := stack(t, 40, 407, 0)
	// Crash 5 caches outside the likely PLSet... crash by address.
	crashed := []topology.CacheIndex{3, 11, 22, 33, 39}
	for _, ci := range crashed {
		tr.Kill(CacheAddr(ci))
	}
	coord, err := NewCoordinator(defaultCfg(4), 40, tr, simrand.New(408))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members)+len(res.Unresponsive) != 40 {
		t.Fatalf("assignments %d + unresponsive %d != 40", len(res.Members), len(res.Unresponsive))
	}
	// All crashed caches must be reported unresponsive (none assigned).
	unr := make(map[topology.CacheIndex]bool)
	for _, ci := range res.Unresponsive {
		unr[ci] = true
	}
	for _, ci := range crashed {
		if !unr[ci] {
			t.Fatalf("crashed cache %d not reported unresponsive", ci)
		}
		if slices.Contains(res.Members, ci) {
			t.Fatalf("crashed cache %d was assigned a group", ci)
		}
	}
}

func TestRunFailsWhenPLSetMostlyDead(t *testing.T) {
	_, tr, _ := stack(t, 20, 409, 0)
	// Kill everything: the PLSet round cannot gather enough members.
	for i := 0; i < 20; i++ {
		tr.Kill(CacheAddr(topology.CacheIndex(i)))
	}
	cfg := Config{L: 4, M: 2, K: 2, Retries: 1}
	coord, err := NewCoordinator(cfg, 20, tr, simrand.New(410))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err == nil {
		t.Fatal("run succeeded with every cache dead")
	}
}

func TestSDSLThetaInProtocol(t *testing.T) {
	nw, tr, _ := stack(t, 100, 411, 0)
	cfg := defaultCfg(10)
	cfg.Theta = 2
	coord, err := NewCoordinator(cfg, 100, tr, simrand.New(412))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Mean group size of the 20 nearest caches must be below the 20
	// farthest (the SDSL property), in expectation; allow equality to
	// avoid flakes at this scale.
	sizes := res.Plan.Sizes()
	assigned := assignmentMap(res)
	var nearSum, farSum float64
	for _, ci := range nw.NearestCaches(20) {
		if g, ok := assigned[ci]; ok {
			nearSum += float64(sizes[g])
		}
	}
	for _, ci := range nw.FarthestCaches(20) {
		if g, ok := assigned[ci]; ok {
			farSum += float64(sizes[g])
		}
	}
	if nearSum > farSum {
		t.Fatalf("SDSL protocol: near mean size %v > far %v", nearSum/20, farSum/20)
	}
}

func TestNewCoordinatorErrors(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(defaultCfg(2), 40, nil, simrand.New(1)); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := NewCoordinator(defaultCfg(2), 40, tr, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewCoordinator(Config{L: 1, M: 1, K: 1}, 40, tr, simrand.New(1)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestNewAgentErrors(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(413))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 2}, simrand.New(414))
	if err != nil {
		t.Fatal(err)
	}
	prober, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(415))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(0, prober, tr)
	if err != nil {
		t.Fatal(err)
	}
	group, _ := a.Group()
	if group != -1 {
		t.Fatalf("unassigned agent group = %d", group)
	}
	if _, err := NewAgent(1, nil, tr); err == nil {
		t.Fatal("nil prober accepted")
	}
	if _, err := NewAgent(1, prober, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
}

// TestResultGroupsMembersAreAscending ensures deterministic member
// ordering for downstream consumers: Members (the plan's row order) and
// every group's member list are ascending.
func TestResultGroupsMembersAreAscending(t *testing.T) {
	_, tr, _ := stack(t, 30, 416, 0)
	coord, err := NewCoordinator(defaultCfg(3), 30, tr, simrand.New(417))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(res.Members) {
		t.Fatalf("members not ascending: %v", res.Members)
	}
	for g, members := range res.Groups() {
		if !slices.IsSorted(members) {
			t.Fatalf("group %d members not ascending: %v", g, members)
		}
	}
}

// golden is the pinned outcome of one protocol run: the landmark set,
// group sizes, unresponsive caches and every counter as literals, plus an
// FNV-1a digest of the full payload: landmarks, the cache -> group map,
// the groups as cache indices, and the centers.
type golden struct {
	landmarks, sizes, unresponsive, unacked string
	sent, retries, dups, timeouts           int64
	plsetSize, plsetResponsive              int
	degraded                                bool
	digest                                  uint64
}

func goldenOf(res *Result) golden {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|%v", res.Plan.Landmarks, assignmentMap(res), res.Groups(), res.Plan.Centers)
	return golden{
		landmarks:       fmt.Sprint(res.Plan.Landmarks),
		sizes:           fmt.Sprint(res.Plan.Sizes()),
		unresponsive:    fmt.Sprint(res.Unresponsive),
		unacked:         fmt.Sprint(res.UnackedAssignments),
		sent:            res.MessagesSent,
		retries:         res.Retries,
		dups:            res.DuplicateReplies,
		timeouts:        res.TimedOutWaits,
		plsetSize:       res.PLSetSize,
		plsetResponsive: res.PLSetResponsive,
		degraded:        res.Degraded,
		digest:          h.Sum64(),
	}
}

// TestRunGoldenLossless pins a lossless SDSL run to literal values, so a
// refactor of the rounds or of landmark selection cannot move the Result.
func TestRunGoldenLossless(t *testing.T) {
	_, tr, _ := stack(t, 40, 400, 0)
	cfg := defaultCfg(5)
	cfg.Theta = 1
	coord, err := NewCoordinator(cfg, 40, tr, simrand.New(401))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := golden{
		landmarks:       "[Os Ec21 Ec26 Ec17 Ec39 Ec12]",
		sizes:           "[17 5 2 2 14]",
		unresponsive:    "[]",
		unacked:         "[]",
		sent:            95,
		plsetSize:       15,
		plsetResponsive: 15,
		digest:          0xe44218578bcac927,
	}
	if got := goldenOf(res); got != want {
		t.Fatalf("lossless run drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestFailedProbesAreUnresponsive: a cache whose feature reply holds a
// failed landmark probe has no usable feature vector. It must be reported
// unresponsive and left out of every group, not clustered as if the
// failed probe had measured 0 ms.
func TestFailedProbesAreUnresponsive(t *testing.T) {
	const n = 60
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(700))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: n}, simrand.New(701))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := probe.DefaultConfig()
	pcfg.Samples, pcfg.MaxRetries, pcfg.LossProb = 1, 0, 0.05
	prober, err := probe.NewProber(nw, pcfg, simrand.New(702))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	startAgents(t, n, prober, tr)
	coord, err := NewCoordinator(Config{L: 6, M: 3, K: 5, Theta: 1}, n, tr, simrand.New(703))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Measurements are pure per pair, so re-measuring finds exactly the
	// caches whose agents saw a failed landmark probe.
	var failed []topology.CacheIndex
	for i := 0; i < n; i++ {
		ci := topology.CacheIndex(i)
		for _, lm := range res.Plan.Landmarks {
			if _, err := prober.Measure(probe.Cache(ci), lm); err != nil {
				failed = append(failed, ci)
				break
			}
		}
	}
	if len(failed) == 0 {
		t.Fatal("no cache had a failed probe; the scenario tests nothing")
	}
	if got, want := fmt.Sprint(res.Unresponsive), fmt.Sprint(failed); got != want {
		t.Fatalf("unresponsive = %s, want the caches with failed probes %s", got, want)
	}
	assigned := assignmentMap(res)
	for _, ci := range failed {
		if g, ok := assigned[ci]; ok {
			t.Fatalf("cache %d with a failed probe was clustered into group %d", ci, g)
		}
	}
	if !res.Degraded {
		t.Fatal("run with failed probes not reported degraded")
	}
}

// closeOnAssign closes the transport right after the first assignment is
// sent, so the assign round sees its transport close mid-round.
type closeOnAssign struct{ *ChanTransport }

func (c closeOnAssign) Send(m Message) error {
	err := c.ChanTransport.Send(m)
	if m.Kind == MsgAssign {
		c.ChanTransport.Close()
	}
	return err
}

// TestTransportClosedDuringAssign: the assign round must stop as soon as
// its transport closes, like the request rounds, instead of spending every
// retry on a dead transport.
func TestTransportClosedDuringAssign(t *testing.T) {
	_, tr, _ := stack(t, 40, 400, 0)
	cfg := defaultCfg(5)
	cfg.Theta = 1
	coord, err := NewCoordinator(cfg, 40, closeOnAssign{tr}, simrand.New(401))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 15 PLSet requests, 40 feature requests, one pass of 40 assigns.
	if res.MessagesSent != 95 || res.Retries != 0 {
		t.Fatalf("sent %d messages with %d retries after the transport closed, want 95 and 0",
			res.MessagesSent, res.Retries)
	}
	if len(res.UnackedAssignments) == 0 || !res.Degraded {
		t.Fatalf("closed transport left no unacked assignments: %+v", res)
	}
}

// TestProtocolMatchesFormGroups is the differential test for the one
// formation path: on a lossless transport, a protocol run and batch
// formation (FormGroups with the greedy selector) over the same prober and
// seed choose the same landmarks and form the same plan, for SL and SDSL
// at two network sizes.
func TestProtocolMatchesFormGroups(t *testing.T) {
	const seed = 501
	for _, tc := range []struct {
		n, k  int
		theta float64
	}{
		{40, 5, 0}, {40, 5, 1}, {120, 12, 0}, {120, 12, 1},
	} {
		t.Run(fmt.Sprintf("n=%d,k=%d,theta=%v", tc.n, tc.k, tc.theta), func(t *testing.T) {
			nw, tr, agents := stack(t, tc.n, 500, 0)
			cfg := defaultCfg(tc.k)
			cfg.Theta = tc.theta
			coord, err := NewCoordinator(cfg, tc.n, tr, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Run()
			if err != nil {
				t.Fatal(err)
			}

			scheme := core.SDSL(cfg.L, cfg.M, tc.theta)
			scheme.Selector = landmark.Greedy{}
			gf, err := core.NewCoordinator(nw, agents[0].prober, scheme, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := gf.FormGroups(tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(res.Plan.Landmarks), fmt.Sprint(batch.Landmarks); got != want {
				t.Fatalf("protocol landmarks %s, FormGroups %s", got, want)
			}
			if len(res.Members) != tc.n {
				t.Fatalf("lossless run left %d of %d caches out of the plan", tc.n-len(res.Members), tc.n)
			}
			if got, want := res.Plan.Checksum(), batch.Checksum(); got != want {
				t.Fatalf("protocol plan %016x, FormGroups plan %016x", got, want)
			}
		})
	}
}
