package netsim

import (
	"math"
	"testing"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

func beaconConfig(b int) Config {
	cfg := exactConfig()
	cfg.BeaconsPerGroup = b
	return cfg
}

func TestBeaconConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconsPerGroup = -1
	if err := cfg.Validate(5); err == nil {
		t.Fatal("negative beacons accepted")
	}
}

func TestChooseBeaconsPicksCentralMembers(t *testing.T) {
	// Line: o -10- c0 -10- c1 -10- c2; c1 is the most central of {0,1,2}.
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	var nodes []topology.NodeID
	prev := o
	for i := 0; i < 3; i++ {
		n := g.AddNode(topology.KindStub, 0)
		if err := g.AddEdge(prev, n, 10); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		prev = n
	}
	nw, err := topology.NewNetworkAt(g, o, nodes)
	if err != nil {
		t.Fatal(err)
	}
	members := []topology.CacheIndex{0, 1, 2}
	dm := make([]float64, len(members)*len(members))
	for a, ca := range members {
		for b, cb := range members {
			dm[a*len(members)+b] = nw.Dist(ca, cb)
		}
	}
	got := chooseBeaconsDist(members, make([]bool, 3), 1, dm)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("beacon = %v, want [1]", got)
	}
	// Failed central member: the next-best live member is chosen.
	failed := make([]bool, 3)
	failed[1] = true
	got = chooseBeaconsDist(members, failed, 1, dm)
	if len(got) != 1 || got[0] == 1 {
		t.Fatalf("beacon with failed center = %v", got)
	}
	// Requesting more beacons than live members clamps.
	got = chooseBeaconsDist(members, failed, 5, dm)
	if len(got) != 2 {
		t.Fatalf("clamped beacons = %v", got)
	}
}

func TestBeaconModeExactLatencies(t *testing.T) {
	// o -10- c0 -10- c1; both in one group; with one beacon the central
	// member is c0 (symmetric pair, tie broken by index).
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, beaconConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		// c0 is the beacon itself: no directory leg. Group empty ->
		// origin: 1 + 5 + 2*10 = 26.
		req(1, 0, 0),
		// c1 -> beacon c0 (RTT 10) + group hit at c0 (2*10): 1+10+20 = 31.
		req(2, 1, 0),
		// c1 local hit after its fetch completes: 1.
		req(3, 1, 0),
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OriginFetches != 1 || rep.GroupHits != 1 || rep.LocalHits != 1 {
		t.Fatalf("hit mix = %d/%d/%d", rep.LocalHits, rep.GroupHits, rep.OriginFetches)
	}
	wantMean := (26.0 + 31 + 1) / 3
	if math.Abs(rep.MeanLatency()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", rep.MeanLatency(), wantMean)
	}
}

func TestBeaconModeMissPaysDirectoryLeg(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, beaconConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// c1 misses everywhere: beacon leg (10) + origin (5 + 2*20): 1+10+45=56.
	rep, err := sim.Run([]workload.Request{req(1, 1, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanLatency()-56) > 1e-9 {
		t.Fatalf("miss latency = %v, want 56", rep.MeanLatency())
	}
}

func TestBeaconModeEndToEnd(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(130))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 60}, simrand.New(131))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(132))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 200, RequestRatePerCache: 1, Similarity: 0.85}
	reqs, err := workload.GenerateRequests(cat, 60, tp, simrand.New(133))
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]topology.CacheIndex, 6)
	for i := 0; i < 60; i++ {
		groups[i%6] = append(groups[i%6], topology.CacheIndex(i))
	}
	cfg := DefaultConfig()
	cfg.BeaconsPerGroup = 2
	sim, err := New(nw, groups, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupHits == 0 {
		t.Fatal("beacon mode produced no group hits")
	}
	if rep.MeanLatency() <= 0 {
		t.Fatal("degenerate latency")
	}
}
