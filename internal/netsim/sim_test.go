package netsim

import (
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// lineNetwork builds o -10- c0 -10- c1.
func lineNetwork(t *testing.T) *topology.Network {
	t.Helper()
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	c0 := g.AddNode(topology.KindStub, 0)
	c1 := g.AddNode(topology.KindStub, 0)
	if err := g.AddEdge(o, c0, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c0, c1, 10); err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetworkAt(g, o, []topology.NodeID{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// fixedCatalog builds a catalog of n static docs of exactly 10KB each.
func fixedCatalog(t *testing.T, n int) *workload.Catalog {
	t.Helper()
	params := workload.CatalogParams{
		NumDocuments:    n,
		ZipfAlpha:       0.8,
		MeanSizeKB:      10,
		SizeSigma:       0,
		DynamicFraction: 0,
	}
	c, err := workload.NewCatalog(params, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exactConfig removes size-proportional costs for analytic latencies.
func exactConfig() Config {
	return Config{
		LocalHitMS:         1,
		OriginProcessingMS: 5,
		RTTsPerTransfer:    2,
		PerKBMS:            0,
		GroupLookupFactor:  1,
		CacheCapacityKB:    1000,
	}
}

func oneGroup() [][]topology.CacheIndex {
	return [][]topology.CacheIndex{{0, 1}}
}

func singletons() [][]topology.CacheIndex {
	return [][]topology.CacheIndex{{0}, {1}}
}

func req(t float64, c topology.CacheIndex, d workload.DocID) workload.Request {
	return workload.Request{TimeSec: t, Cache: c, Doc: d}
}

// realisticWorkload builds a 60-cache transit-stub network with generated
// request/update logs and 6 index-dealt groups — enough groups, fetch
// completions, and interleaved updates to exercise every event-order path.
func realisticWorkload(t *testing.T, seed int64) (*topology.Network, *workload.Catalog, [][]topology.CacheIndex, []workload.Request, []workload.Update) {
	t.Helper()
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 60}, simrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 120, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := workload.GenerateRequests(cat, 60, tp, simrand.New(seed+3))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := workload.GenerateUpdates(cat, 120, simrand.New(seed+4))
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]topology.CacheIndex, 6)
	for i := 0; i < 60; i++ {
		groups[i%6] = append(groups[i%6], topology.CacheIndex(i))
	}
	return nw, cat, groups, reqs, ups
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(10); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative local hit", func(c *Config) { c.LocalHitMS = -1 }},
		{"negative origin", func(c *Config) { c.OriginProcessingMS = -1 }},
		{"zero transfer", func(c *Config) { c.RTTsPerTransfer = 0 }},
		{"negative per kb", func(c *Config) { c.PerKBMS = -1 }},
		{"negative lookup", func(c *Config) { c.GroupLookupFactor = -1 }},
		{"zero capacity", func(c *Config) { c.CacheCapacityKB = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupSec = -1 }},
		{"NaN local hit", func(c *Config) { c.LocalHitMS = math.NaN() }},
		{"infinite local hit", func(c *Config) { c.LocalHitMS = math.Inf(1) }},
		{"NaN origin", func(c *Config) { c.OriginProcessingMS = math.NaN() }},
		{"infinite origin", func(c *Config) { c.OriginProcessingMS = math.Inf(1) }},
		{"NaN transfer", func(c *Config) { c.RTTsPerTransfer = math.NaN() }},
		{"infinite transfer", func(c *Config) { c.RTTsPerTransfer = math.Inf(1) }},
		{"NaN per kb", func(c *Config) { c.PerKBMS = math.NaN() }},
		{"infinite per kb", func(c *Config) { c.PerKBMS = math.Inf(1) }},
		{"NaN lookup", func(c *Config) { c.GroupLookupFactor = math.NaN() }},
		{"infinite lookup", func(c *Config) { c.GroupLookupFactor = math.Inf(1) }},
		{"NaN capacity", func(c *Config) { c.CacheCapacityKB = math.NaN() }},
		{"infinite capacity", func(c *Config) { c.CacheCapacityKB = math.Inf(1) }},
		{"NaN warmup", func(c *Config) { c.WarmupSec = math.NaN() }},
		{"infinite warmup", func(c *Config) { c.WarmupSec = math.Inf(1) }},
		{"negative infinite warmup", func(c *Config) { c.WarmupSec = math.Inf(-1) }},
		{"bad failed cache", func(c *Config) { c.FailedCaches = []topology.CacheIndex{10} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(10); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewValidatesPartition(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	tests := []struct {
		name   string
		groups [][]topology.CacheIndex
	}{
		{"missing cache", [][]topology.CacheIndex{{0}}},
		{"duplicate cache", [][]topology.CacheIndex{{0, 1}, {1}}},
		{"out of range", [][]topology.CacheIndex{{0, 1, 2}}},
		{"negative", [][]topology.CacheIndex{{0, -1}, {1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(nw, tt.groups, cat, cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if _, err := New(nil, oneGroup(), cat, cfg); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(nw, oneGroup(), nil, cfg); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestExactLatencies(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // miss everywhere: 1 + lookup(10) + 5 + 2*10 = 36
		req(2, 0, 0), // local hit: 1
		req(3, 1, 0), // group hit at c0: 1 + 2*10 = 21
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests() != 3 {
		t.Fatalf("requests = %d", rep.Requests())
	}
	if rep.LocalHits != 1 || rep.GroupHits != 1 || rep.OriginFetches != 1 {
		t.Fatalf("hits = %d/%d/%d", rep.LocalHits, rep.GroupHits, rep.OriginFetches)
	}
	wantMean := (36.0 + 1 + 21) / 3
	if math.Abs(rep.MeanLatency()-wantMean) > 1e-9 {
		t.Fatalf("mean latency = %v, want %v", rep.MeanLatency(), wantMean)
	}
	// Per-cache means.
	if got := rep.MeanLatencyOf([]topology.CacheIndex{0}); math.Abs(got-18.5) > 1e-9 {
		t.Fatalf("c0 mean = %v, want 18.5", got)
	}
	if got := rep.MeanLatencyOf([]topology.CacheIndex{1}); math.Abs(got-21) > 1e-9 {
		t.Fatalf("c1 mean = %v, want 21", got)
	}
}

func TestSingletonGroupsSkipLookupCost(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, singletons(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run([]workload.Request{req(1, 0, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 5 + 2*10 = 26, no group lookup.
	if math.Abs(rep.MeanLatency()-26) > 1e-9 {
		t.Fatalf("mean = %v, want 26", rep.MeanLatency())
	}
	if rep.OriginFetches != 1 || rep.GroupHits != 0 {
		t.Fatalf("counters = %+v", rep)
	}
}

func TestUpdateInvalidatesCachedCopy(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, singletons(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // origin fetch
		req(2, 0, 0), // local hit
		req(4, 0, 0), // after update at t=3: consistency miss -> origin
	}
	updates := []workload.Update{{TimeSec: 3, Doc: 0}}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalHits != 1 || rep.OriginFetches != 2 {
		t.Fatalf("local=%d origin=%d, want 1/2", rep.LocalHits, rep.OriginFetches)
	}
	if rep.Updates != 1 {
		t.Fatalf("updates = %d", rep.Updates)
	}
	st, err := sim.CacheStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleDrops != 1 {
		t.Fatalf("stale drops = %d, want 1", st.StaleDrops)
	}
}

func TestInFlightFetchDiscardedOnUpdate(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, singletons(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fetch for the request at t=1 completes at t=1.026; the update at
	// t=1.01 must prevent the stale copy from being cached, so the request
	// at t=2 is another origin fetch.
	requests := []workload.Request{req(1, 0, 0), req(2, 0, 0)}
	updates := []workload.Update{{TimeSec: 1.01, Doc: 0}}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalHits != 0 || rep.OriginFetches != 2 {
		t.Fatalf("local=%d origin=%d, want 0/2", rep.LocalHits, rep.OriginFetches)
	}
}

func TestGroupPeerServesAfterFetchCompletes(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The second request arrives before c0's fetch completes, so it misses
	// the group too and fetches from the origin itself; by t=2 its own copy
	// has arrived, so the third request is a local hit.
	requests := []workload.Request{
		req(1, 0, 0),
		req(1.001, 1, 0), // c0 fetch completes at ~1.036 -> group miss
		req(2, 1, 0),     // served from c1's own copy now
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupHits != 0 || rep.OriginFetches != 2 || rep.LocalHits != 1 {
		t.Fatalf("group=%d origin=%d local=%d, want 0/2/1", rep.GroupHits, rep.OriginFetches, rep.LocalHits)
	}
}

func TestFailedCacheFailsOverToOrigin(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.FailedCaches = []topology.CacheIndex{0}
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // failed cache: failover, 5 + 2*10 = 25
		req(2, 1, 0), // c1's only peer is failed: direct origin (no lookup), 1+5+2*20=46
		req(3, 1, 0), // local hit
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailoverFetches != 1 {
		t.Fatalf("failover = %d", rep.FailoverFetches)
	}
	if rep.OriginFetches != 1 || rep.LocalHits != 1 {
		t.Fatalf("origin=%d local=%d", rep.OriginFetches, rep.LocalHits)
	}
	// c1 must have zero lookup overhead (its one peer is down).
	// Its two requests are the 46 ms origin fetch and a 1 ms local hit.
	if pc := rep.PerCache[1]; pc.Requests != 2 || math.Abs(pc.MeanLatency()-47.0/2) > 1e-9 {
		t.Fatalf("c1 tally = %+v (mean %v), want 2 requests averaging 23.5 ms", pc, pc.MeanLatency())
	}
}

func TestWarmupExcludesSamples(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.WarmupSec = 1.5
	sim, err := New(nw, singletons(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run([]workload.Request{req(1, 0, 0), req(2, 0, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests() != 1 {
		t.Fatalf("recorded %d requests, want 1 (warmup)", rep.Requests())
	}
	// The warm-up request still warmed the cache: the recorded one is a hit.
	if rep.LocalHits != 1 {
		t.Fatalf("local hits = %d, want 1", rep.LocalHits)
	}
}

func TestRunTwiceFails(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nil, nil); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestRunValidatesEvents(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]workload.Request{req(1, 5, 0)}, nil); err == nil {
		t.Fatal("bad cache index accepted")
	}
	sim2, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run([]workload.Request{req(1, 0, 99)}, nil); err == nil {
		t.Fatal("bad doc accepted")
	}
	sim3, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim3.Run(nil, []workload.Update{{TimeSec: 1, Doc: 99}}); err == nil {
		t.Fatal("bad update doc accepted")
	}
}

// TestRunRejectsNonFiniteTimes pins Run's rejection of NaN and infinite
// event times, naming the offending log index. A NaN time has no place in
// the (time, seq) event order; accepted, its request would be replayed at
// an arbitrary point.
func TestRunRejectsNonFiniteTimes(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cases := []struct {
		name    string
		reqs    []workload.Request
		ups     []workload.Update
		wantErr string
	}{
		{"NaN request and +Inf update", []workload.Request{req(1, 0, 0), req(math.NaN(), 1, 1)},
			[]workload.Update{{TimeSec: math.Inf(1), Doc: 0}}, "request 1 has non-finite time NaN"},
		{"+Inf request", []workload.Request{req(math.Inf(1), 0, 0)}, nil, "request 0 has non-finite time +Inf"},
		{"-Inf request", []workload.Request{req(1, 0, 0), req(2, 0, 1), req(math.Inf(-1), 1, 0)}, nil,
			"request 2 has non-finite time -Inf"},
		{"+Inf update", []workload.Request{req(1, 0, 0)},
			[]workload.Update{{TimeSec: 1, Doc: 0}, {TimeSec: math.Inf(1), Doc: 1}}, "update 1 has non-finite time +Inf"},
		{"NaN update", nil, []workload.Update{{TimeSec: math.NaN(), Doc: 2}}, "update 0 has non-finite time NaN"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := New(nw, oneGroup(), cat, exactConfig())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(c.reqs, c.ups)
			if err == nil {
				t.Fatalf("Run accepted the log and returned %+v", rep)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Run error %q, want it to mention %q", err, c.wantErr)
			}
		})
	}
}

func TestCacheStatsRange(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CacheStats(5); err == nil {
		t.Fatal("out-of-range CacheStats accepted")
	}
}

func TestHitRatesAndString(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run([]workload.Request{req(1, 0, 0), req(2, 0, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, g, o := rep.HitRates()
	if math.Abs(l-0.5) > 1e-9 || g != 0 || math.Abs(o-0.5) > 1e-9 {
		t.Fatalf("hit rates = %v/%v/%v", l, g, o)
	}
	if !strings.Contains(rep.String(), "requests=2") {
		t.Fatalf("String() = %q", rep.String())
	}
	var empty Report
	l, g, o = empty.HitRates()
	if l != 0 || g != 0 || o != 0 {
		t.Fatal("empty report hit rates not zero")
	}
}

// TestEndToEndRealisticRun exercises the full pipeline on a generated
// topology and workload and checks global sanity properties.
func TestEndToEndRealisticRun(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(90))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 60}, simrand.New(91))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(92))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 200, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := workload.GenerateRequests(cat, 60, tp, simrand.New(93))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := workload.GenerateUpdates(cat, 200, simrand.New(94))
	if err != nil {
		t.Fatal(err)
	}
	// 6 groups of 10 by index (not proximity-aware; fine for sanity).
	groups := make([][]topology.CacheIndex, 6)
	for i := 0; i < 60; i++ {
		groups[i%6] = append(groups[i%6], topology.CacheIndex(i))
	}
	sim, err := New(nw, groups, cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests() != int64(len(reqs)) {
		t.Fatalf("recorded %d of %d requests", rep.Requests(), len(reqs))
	}
	if rep.LocalHits == 0 || rep.GroupHits == 0 || rep.OriginFetches == 0 {
		t.Fatalf("degenerate hit mix: %s", rep)
	}
	if rep.Updates != int64(len(ups)) {
		t.Fatalf("applied %d of %d updates", rep.Updates, len(ups))
	}
	if rep.MeanLatency() <= 0 {
		t.Fatal("non-positive mean latency")
	}
}

// TestCooperationHelpsFarCaches: at realistic cache density, cooperative
// groups of mutually proximate caches must reduce mean latency versus
// singleton groups (the paper's premise for why groups exist at all).
func TestCooperationHelpsFarCaches(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(95))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 150}, simrand.New(96))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(97))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 300, RequestRatePerCache: 1, Similarity: 0.85}
	reqs, err := workload.GenerateRequests(cat, 150, tp, simrand.New(98))
	if err != nil {
		t.Fatal(err)
	}

	run := func(groups [][]topology.CacheIndex) float64 {
		sim, err := New(nw, groups, cat, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanLatency()
	}

	solo := make([][]topology.CacheIndex, 150)
	for i := range solo {
		solo[i] = []topology.CacheIndex{topology.CacheIndex(i)}
	}
	soloLat := run(solo)

	// Mutually-proximate groups of 8: repeatedly seed a group with an
	// unassigned cache and add its 7 nearest unassigned neighbours.
	assigned := make([]bool, 150)
	var grouped [][]topology.CacheIndex
	for seed := 0; seed < 150; seed++ {
		if assigned[seed] {
			continue
		}
		group := []topology.CacheIndex{topology.CacheIndex(seed)}
		assigned[seed] = true
		for len(group) < 8 {
			best := -1
			var bestD float64
			for j := 0; j < 150; j++ {
				if assigned[j] {
					continue
				}
				d := nw.Dist(topology.CacheIndex(seed), topology.CacheIndex(j))
				if best < 0 || d < bestD {
					best, bestD = j, d
				}
			}
			if best < 0 {
				break
			}
			assigned[best] = true
			group = append(group, topology.CacheIndex(best))
		}
		grouped = append(grouped, group)
	}
	groupLat := run(grouped)

	if groupLat >= soloLat {
		t.Fatalf("cooperation did not help: grouped %vms vs solo %vms", groupLat, soloLat)
	}
}

func TestPerGroupStats(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // origin fetch (36ms)
		req(2, 0, 0), // local hit (1ms)
		req(3, 1, 0), // group hit (21ms)
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerGroup) != 1 {
		t.Fatalf("PerGroup has %d entries, want 1", len(rep.PerGroup))
	}
	g := rep.PerGroup[0]
	if g.Requests != 3 || g.LocalHits != 1 || g.GroupHits != 1 || g.OriginFetches != 1 {
		t.Fatalf("group stats = %+v", g)
	}
	wantMean := (36.0 + 1 + 21) / 3
	if math.Abs(g.MeanLatency()-wantMean) > 1e-9 {
		t.Fatalf("group mean latency = %v, want %v", g.MeanLatency(), wantMean)
	}
	if math.Abs(g.GroupHitRate()-1.0/3) > 1e-9 {
		t.Fatalf("group hit rate = %v, want 1/3", g.GroupHitRate())
	}
}

func TestPerGroupStatsSplitAcrossGroups(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	sim, err := New(nw, singletons(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run([]workload.Request{req(1, 0, 0), req(2, 1, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerGroup) != 2 {
		t.Fatalf("PerGroup has %d entries, want 2", len(rep.PerGroup))
	}
	if rep.PerGroup[0].Requests != 1 || rep.PerGroup[1].Requests != 1 {
		t.Fatalf("per-group requests = %d/%d", rep.PerGroup[0].Requests, rep.PerGroup[1].Requests)
	}
	var empty GroupStat
	if empty.MeanLatency() != 0 || empty.GroupHitRate() != 0 {
		t.Fatal("empty GroupStat should report zeros")
	}
}

func TestOriginLoadAccounting(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3) // every doc exactly 10KB
	sim, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // origin fetch: +10KB
		req(2, 0, 0), // local hit: no origin traffic
		req(3, 1, 0), // group hit: no origin traffic
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OriginKB-10) > 1e-9 {
		t.Fatalf("OriginKB = %v, want 10", rep.OriginKB)
	}
}

func TestCachePolicyConfig(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.CachePolicy = cache.PolicyLRU
	if _, err := New(nw, oneGroup(), cat, cfg); err != nil {
		t.Fatalf("LRU policy rejected: %v", err)
	}
	cfg.CachePolicy = cache.Policy(9)
	if _, err := New(nw, oneGroup(), cat, cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestUtilityPolicyBeatsLRUOnDynamicWorkload: under a skewed workload with
// dynamic documents and far-away caches, utility-based replacement should
// produce at least as good latency as plain LRU (the Cache Clouds result).
func TestUtilityPolicyNotWorseThanLRU(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(120))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 60}, simrand.New(121))
	if err != nil {
		t.Fatal(err)
	}
	catParams := workload.DefaultCatalogParams()
	catParams.SizeSigma = 1.2 // strong size variance: utility has signal
	cat, err := workload.NewCatalog(catParams, simrand.New(122))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 300, RequestRatePerCache: 1, Similarity: 0.85}
	reqs, err := workload.GenerateRequests(cat, 60, tp, simrand.New(123))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := workload.GenerateUpdates(cat, 300, simrand.New(124))
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]topology.CacheIndex, 6)
	for i := 0; i < 60; i++ {
		groups[i%6] = append(groups[i%6], topology.CacheIndex(i))
	}
	run := func(p cache.Policy) float64 {
		cfg := DefaultConfig()
		cfg.CachePolicy = p
		sim, err := New(nw, groups, cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanLatency()
	}
	utility := run(cache.PolicyUtility)
	lru := run(cache.PolicyLRU)
	if utility > lru*1.05 {
		t.Fatalf("utility policy latency %v clearly worse than LRU %v", utility, lru)
	}
}

// TestSimulatorDeterministic: identical inputs yield bit-identical reports.
func TestSimulatorDeterministic(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(140))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 30}, simrand.New(141))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(142))
	if err != nil {
		t.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 100, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := workload.GenerateRequests(cat, 30, tp, simrand.New(143))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := workload.GenerateUpdates(cat, 100, simrand.New(144))
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]topology.CacheIndex, 5)
	for i := 0; i < 30; i++ {
		groups[i%5] = append(groups[i%5], topology.CacheIndex(i))
	}
	run := func() *Report {
		sim, err := New(nw, groups, cat, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.MeanLatency() != b.MeanLatency() || a.Requests() != b.Requests() ||
		a.LocalHits != b.LocalHits || a.GroupHits != b.GroupHits ||
		a.OriginFetches != b.OriginFetches || a.OriginKB != b.OriginKB {
		t.Fatalf("simulator not deterministic:\n%s\n%s", a, b)
	}
	for g := range a.PerGroup {
		if a.PerGroup[g] != b.PerGroup[g] {
			t.Fatalf("per-group stats differ for group %d", g)
		}
	}
}

func TestPushInvalidationAccounting(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.PushInvalidation = true
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // c0 fetches doc 0
		req(2, 1, 0), // c1 group-hits and caches it too
		req(4, 0, 0), // after push invalidation at t=3: origin again
	}
	updates := []workload.Update{{TimeSec: 3, Doc: 0}}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		t.Fatal(err)
	}
	// Both caches held doc 0 in one group: 1 origin message + 1 forward.
	if rep.InvalidationsOrigin != 1 || rep.InvalidationsForwarded != 1 {
		t.Fatalf("invalidation msgs = %d origin / %d forwarded, want 1/1",
			rep.InvalidationsOrigin, rep.InvalidationsForwarded)
	}
	// The copies are gone: the request at t=4 is an origin fetch, and the
	// cache records no stale drop (eager, not lazy, invalidation).
	if rep.OriginFetches != 2 {
		t.Fatalf("origin fetches = %d, want 2", rep.OriginFetches)
	}
	st, err := sim.CacheStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleDrops != 0 {
		t.Fatalf("push mode left lazy stale drops: %d", st.StaleDrops)
	}
}

func TestPushInvalidationSavesOriginMessages(t *testing.T) {
	// 4 caches in 2 groups, all holding the same doc: per-cache push would
	// cost 4 origin messages; group push costs 2 (+2 forwards).
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	var nodes []topology.NodeID
	prev := o
	for i := 0; i < 4; i++ {
		n := g.AddNode(topology.KindStub, 0)
		if err := g.AddEdge(prev, n, 5); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		prev = n
	}
	nw, err := topology.NewNetworkAt(g, o, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cat := fixedCatalog(t, 2)
	cfg := exactConfig()
	cfg.PushInvalidation = true
	groups := [][]topology.CacheIndex{{0, 1}, {2, 3}}
	sim, err := New(nw, groups, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var requests []workload.Request
	for i := 0; i < 4; i++ {
		requests = append(requests, req(float64(i+1), topology.CacheIndex(i), 0))
	}
	updates := []workload.Update{{TimeSec: 10, Doc: 0}}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InvalidationsOrigin != 2 {
		t.Fatalf("origin invalidations = %d, want 2 (one per group)", rep.InvalidationsOrigin)
	}
	if rep.InvalidationsOrigin+rep.InvalidationsForwarded != 4 {
		t.Fatalf("total invalidation msgs = %d, want 4 (all holders)",
			rep.InvalidationsOrigin+rep.InvalidationsForwarded)
	}
}

func TestWarmupExcludesUpdatesAndInvalidations(t *testing.T) {
	// Update accounting must honor the same warm-up cutoff as request
	// accounting: the update at t=1 (inside warm-up) still invalidates the
	// cached copies — the recorded request at t=2 goes back to the origin —
	// but it must not appear in Updates or the invalidation-message
	// counters. Only the update at t=3 is recorded.
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.WarmupSec = 1.5
	cfg.PushInvalidation = true
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(0.2, 0, 0), // warm-up: c0 fetches doc 0 from the origin
		req(0.5, 1, 0), // warm-up: c1 group-hits and caches a copy
		req(2.0, 0, 0), // recorded: origin again (warm-up update invalidated)
		req(2.5, 1, 0), // recorded: group hit, c1 holds a copy again
		req(4.0, 0, 0), // recorded: origin again after the recorded update
	}
	updates := []workload.Update{
		{TimeSec: 1, Doc: 0}, // warm-up: invalidates, but is not counted
		{TimeSec: 3, Doc: 0}, // recorded
	}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests() != 3 {
		t.Fatalf("recorded %d requests, want 3", rep.Requests())
	}
	if rep.OriginFetches != 2 || rep.GroupHits != 1 {
		t.Fatalf("origin=%d group=%d, want 2/1 (warm-up update must still invalidate)", rep.OriginFetches, rep.GroupHits)
	}
	if rep.Updates != 1 {
		t.Fatalf("Updates = %d, want 1 (warm-up update leaked into the count)", rep.Updates)
	}
	// At t=3 both caches in the one group hold doc 0: one origin message
	// plus one intra-group forward. The warm-up invalidation contributes
	// nothing.
	if rep.InvalidationsOrigin != 1 || rep.InvalidationsForwarded != 1 {
		t.Fatalf("invalidation msgs = %d origin / %d forwarded, want 1/1",
			rep.InvalidationsOrigin, rep.InvalidationsForwarded)
	}
}

func TestRequestPathAllocationLean(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 4)
	s, err := New(nw, oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.ran = true // drive a shard directly; Run must not be reused
	requests := []workload.Request{req(1, 0, 0)}
	sh := s.newShards(1, requests, 0)[0]
	// Cache 1 holds doc 0, so cache 0's requests exercise the longest path:
	// local miss, holder lookup, group hit, buffering, fetch scheduling.
	// The copy arrives through the shard's own insert path, so the holder
	// directory records it.
	sh.handleFetchComplete(event{cache: 1, doc: 0, version: 0})
	ev, isRequest, ok := sh.head()
	if !ok || !isRequest {
		t.Fatalf("head = %+v request=%v ok=%v, want the logged request", ev, isRequest, ok)
	}
	// Run sizes the outcome buffers to the shard's request count; these
	// are sized for the 501 calls below.
	sh.lat = make([]float64, 0, 501)
	sh.how = make([]outcome, 0, 501)
	avg := testing.AllocsPerRun(500, func() {
		sh.handleRequest(ev)
		sh.queue = sh.queue[:0] // discard scheduled fetch completions
	})
	// Outcomes go into the shard's presized buffers and the completion
	// heap keeps its capacity, so after the warm-up call the path runs
	// entirely on reused memory.
	if avg != 0 {
		t.Fatalf("request path averaged %v allocs/request, want 0", avg)
	}
	if len(sh.how) != 501 {
		t.Fatalf("buffered %d outcomes, want 501", len(sh.how))
	}
	for k, how := range sh.how {
		if how != outcomeGroup {
			t.Fatalf("outcome %d is %v, want a group hit", k, how.public())
		}
	}
}

// TestRunAllocationsPerRequest bounds the allocations of a whole Run: the
// cache store, request order and report allocate per cache or per run, not
// per request or per admitted document.
func TestRunAllocationsPerRequest(t *testing.T) {
	nw, cat, _, reqs, ups := realisticWorkload(t, 300)
	groups := make([][]topology.CacheIndex, 2)
	for i := 0; i < nw.NumCaches(); i++ {
		groups[i%2] = append(groups[i%2], topology.CacheIndex(i))
	}
	const runs = 3
	sims := make([]*Simulator, runs+1) // AllocsPerRun adds one warm-up call
	for i := range sims {
		sim, err := New(nw, groups, cat, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		sim := sims[next]
		next++
		if _, err := sim.Run(reqs, ups); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(reqs) / 4); avg >= limit {
		t.Fatalf("Run of %d requests averaged %v allocs, want < %v", len(reqs), avg, limit)
	}
	t.Logf("Run of %d requests and %d updates: %v allocs", len(reqs), len(ups), avg)
}

func TestPushInvalidateAllocationFree(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 4)
	cfg := exactConfig()
	cfg.PushInvalidation = true
	s, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ran = true // drive a shard directly; Run must not be reused
	sh := s.newShards(1, nil, 0)[0]
	// One priming round with a real holder, admitted through the shard's
	// own insert path so the holder directory records it, exercises the
	// per-group accounting.
	sh.handleFetchComplete(event{cache: 0, doc: 1, version: 0})
	sh.pushInvalidate(1, true)
	if sh.invOrigin != 1 {
		t.Fatalf("priming round recorded %d origin invalidations, want 1", sh.invOrigin)
	}
	// The sweep itself must not allocate (the old implementation built a
	// fresh map per update even when nothing was held). Each round
	// re-admits a copy at both caches, so every sweep drops two holders.
	avg := testing.AllocsPerRun(200, func() {
		sh.handleFetchComplete(event{cache: 0, doc: 1, version: 0})
		sh.handleFetchComplete(event{cache: 1, doc: 1, version: 0})
		sh.pushInvalidate(1, true)
	})
	if avg != 0 {
		t.Fatalf("pushInvalidate averaged %v allocs/update, want 0", avg)
	}
	// The priming round plus 201 sweeps (AllocsPerRun adds a warm-up
	// call), each of the later ones one origin message and one forward.
	if sh.invOrigin != 202 || sh.invForwarded != 201 {
		t.Fatalf("invalidation msgs = %d origin / %d forwarded, want 202/201",
			sh.invOrigin, sh.invForwarded)
	}
}

// TestMeanLatencyOfMatchesOverallMean pins the report-merge fix: over all
// caches, MeanLatencyOf must equal Overall.Mean() exactly. The old
// implementation rebuilt per-cache sums as Mean()*Count(), and 29/7*7 != 29
// in float64, so a cache with seven requests summing to 29ms exposed the
// round-trip drift.
func TestMeanLatencyOfMatchesOverallMean(t *testing.T) {
	rep := newReport(2, 1, []int{0, 0})
	for _, lat := range []float64{1, 1, 5, 5, 5, 6, 6} { // sum 29 over 7
		rep.record(0, lat, outcomeLocal)
	}
	for _, lat := range []float64{3, 4} {
		rep.record(1, lat, outcomeLocal)
	}
	all := []topology.CacheIndex{0, 1}
	if got, want := rep.MeanLatencyOf(all), rep.Overall.Mean(); got != want {
		t.Fatalf("MeanLatencyOf(all) = %v, Overall.Mean() = %v", got, want)
	}
	if want := 4.0; rep.Overall.Mean() != want { // 36ms over 9 requests
		t.Fatalf("Overall.Mean() = %v, want %v", rep.Overall.Mean(), want)
	}
}

// TestDocSizeBoundsSmallestLast pins the first-seen fix in docSizeBounds: a
// catalog whose smallest document is listed last must still yield the true
// minimum, and the walk must report catalog errors instead of skipping
// them.
func TestDocSizeBoundsSmallestLast(t *testing.T) {
	js := `[{"id":0,"sizeKB":5},{"id":1,"sizeKB":3},{"id":2,"sizeKB":0.25}]`
	cat, err := workload.ReadCatalogJSON(strings.NewReader(js), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(lineNetwork(t), oneGroup(), cat, exactConfig())
	if err != nil {
		t.Fatal(err)
	}
	minKB, maxKB, err := sim.docSizeBounds()
	if err != nil {
		t.Fatal(err)
	}
	if minKB != 0.25 || maxKB != 5 {
		t.Fatalf("bounds = [%v, %v], want [0.25, 5]", minKB, maxKB)
	}
}

// TestSoleLiveMemberPaysNoCooperativeCharge pins the latency-model
// alignment between the two cooperation modes: a requester whose group
// peers are all down pays the plain origin path — local miss, origin
// processing, transfer — with no multicast wait and no beacon directory
// round trip. On the line network that is 1 + 5 + 2×10 = 26ms.
func TestSoleLiveMemberPaysNoCooperativeCharge(t *testing.T) {
	for _, beacons := range []int{0, 1} {
		cfg := exactConfig()
		cfg.BeaconsPerGroup = beacons
		cfg.FailedCaches = []topology.CacheIndex{1}
		sim, err := New(lineNetwork(t), oneGroup(), fixedCatalog(t, 2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run([]workload.Request{req(1, 0, 0)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Overall.Mean(); got != 26 {
			t.Fatalf("beacons=%d: sole live member latency = %vms, want 26", beacons, got)
		}
		if rep.OriginFetches != 1 {
			t.Fatalf("beacons=%d: origin fetches = %d, want 1", beacons, rep.OriginFetches)
		}
	}
}
