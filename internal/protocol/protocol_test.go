package protocol

import (
	"math"
	"sort"
	"testing"
	"time"

	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// stack builds a network, prober, transport, and running agents.
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
	tr, err := NewChanTransport(loss, lossSrc)
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, numCaches)
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
	return nw, tr, agents
}

func defaultCfg(k int) Config {
	return Config{L: 6, M: 3, K: k, ReplyTimeout: 200 * time.Millisecond, Retries: 3}
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
		{L: 4, M: 2, K: 2, Retries: -2},       // below the NoRetries sentinel
		{L: 4, M: 2, K: 2, BackoffBase: -time.Second},
		{L: 4, M: 2, K: 2, BackoffMax: -time.Second},
		{L: 4, M: 2, K: 2, RoundBudget: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(60); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTransportBasics(t *testing.T) {
	tr, err := NewChanTransport(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChanTransport(1, nil); err == nil {
		t.Fatal("lossProb=1 accepted")
	}
	box := tr.Register(CacheAddr(1))
	if err := tr.Send(Message{To: CacheAddr(1), Kind: MsgAssign}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-box:
		if msg.Kind != MsgAssign {
			t.Fatalf("kind = %v", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	if err := tr.Send(Message{To: CacheAddr(9)}); err == nil {
		t.Fatal("send to unregistered addr accepted")
	}
	// Killed node swallows silently.
	tr.Kill(CacheAddr(1))
	if err := tr.Send(Message{To: CacheAddr(1)}); err != nil {
		t.Fatalf("send to killed node errored: %v", err)
	}
	select {
	case <-box:
		t.Fatal("killed node received a message")
	case <-time.After(20 * time.Millisecond):
	}
	tr.Close()
	if err := tr.Send(Message{To: CacheAddr(1)}); err != ErrTransportClosed {
		t.Fatalf("send after close = %v", err)
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
	if len(res.Landmarks) != 6 || !res.Landmarks[0].IsOrigin() {
		t.Fatalf("landmarks = %v", res.Landmarks)
	}
	if len(res.Unresponsive) != 0 {
		t.Fatalf("unresponsive = %v on a lossless transport", res.Unresponsive)
	}
	if len(res.UnackedAssignments) != 0 {
		t.Fatalf("unacked = %v on a lossless transport", res.UnackedAssignments)
	}
	if len(res.Assignments) != 40 {
		t.Fatalf("assignments cover %d caches", len(res.Assignments))
	}
	covered := 0
	for g, members := range res.Groups {
		if len(members) == 0 {
			t.Fatalf("group %d empty", g)
		}
		covered += len(members)
	}
	if covered != 40 {
		t.Fatalf("groups cover %d caches", covered)
	}
	// Every agent applied its assignment and got its member list.
	for i, a := range agents {
		group, members := a.Group()
		if group != res.Assignments[topology.CacheIndex(i)] {
			t.Fatalf("agent %d group %d != coordinator's %d", i, group, res.Assignments[topology.CacheIndex(i)])
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
	protoCost := metrics.AvgGroupInteractionCost(nw, res.Groups)

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
	if len(res.Assignments) < 35 {
		t.Fatalf("only %d/40 caches assigned under 20%% loss", len(res.Assignments))
	}
}

func TestRunHandlesCrashedCaches(t *testing.T) {
	_, tr, _ := stack(t, 40, 407, 0)
	// Crash 5 caches outside the likely PLSet... crash by address.
	crashed := []topology.CacheIndex{3, 11, 22, 33, 39}
	for _, ci := range crashed {
		tr.Kill(CacheAddr(ci))
	}
	cfg := defaultCfg(4)
	cfg.ReplyTimeout = 60 * time.Millisecond
	coord, err := NewCoordinator(cfg, 40, tr, simrand.New(408))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments)+len(res.Unresponsive) != 40 {
		t.Fatalf("assignments %d + unresponsive %d != 40", len(res.Assignments), len(res.Unresponsive))
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
		if _, ok := res.Assignments[ci]; ok {
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
	cfg := Config{L: 4, M: 2, K: 2, ReplyTimeout: 30 * time.Millisecond, Retries: 1}
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
	sizes := make([]int, len(res.Groups))
	for g, m := range res.Groups {
		sizes[g] = len(m)
	}
	var nearSum, farSum float64
	for _, ci := range nw.NearestCaches(20) {
		if g, ok := res.Assignments[ci]; ok {
			nearSum += float64(sizes[g])
		}
	}
	for _, ci := range nw.FarthestCaches(20) {
		if g, ok := res.Assignments[ci]; ok {
			farSum += float64(sizes[g])
		}
	}
	if nearSum > farSum {
		t.Fatalf("SDSL protocol: near mean size %v > far %v", nearSum/20, farSum/20)
	}
}

func TestNewCoordinatorErrors(t *testing.T) {
	tr, err := NewChanTransport(0, nil)
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

func TestAgentStopIdempotent(t *testing.T) {
	tr, err := NewChanTransport(0, nil)
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
	a.Stop()
	a.Stop() // must not panic or deadlock
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

// TestResultGroupsSorted ensures deterministic group member ordering for
// downstream consumers.
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
	for g, members := range res.Groups {
		if !sort.SliceIsSorted(members, func(a, b int) bool { return members[a] < members[b] }) {
			t.Fatalf("group %d members not ascending: %v", g, members)
		}
	}
}
