package ecg_test

// Integration tests covering cross-module flows: trace files round-tripped
// through the simulator, topology serialization feeding group formation,
// flash crowds stressing cooperative groups, and scheme comparisons through
// the public API only.

import (
	"bytes"
	"testing"

	ecg "edgecachegroups"
	"edgecachegroups/internal/workload"
)

// buildStack builds the standard test stack through the public API.
func buildStack(t *testing.T, numCaches int, seed int64) (*ecg.Network, *ecg.Prober, *ecg.Rand) {
	t.Helper()
	src := ecg.NewRand(seed)
	graph, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topology"))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: numCaches}, src.Split("placement"))
	if err != nil {
		t.Fatal(err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		t.Fatal(err)
	}
	return nw, prober, src
}

// TestTraceFileRoundTripThroughSimulator: serialize a workload to the
// on-disk formats, read it back, and verify the simulation result is
// identical to running the in-memory originals.
func TestTraceFileRoundTripThroughSimulator(t *testing.T) {
	nw, prober, src := buildStack(t, 30, 200)
	catalog, err := ecg.NewCatalog(ecg.DefaultCatalogParams(), src.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 60, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := ecg.GenerateRequests(catalog, 30, tp, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := ecg.GenerateUpdates(catalog, 60, src.Split("ups"))
	if err != nil {
		t.Fatal(err)
	}

	// Round trip through the JSONL formats.
	var reqBuf, upBuf, catBuf bytes.Buffer
	if err := workload.WriteRequestsJSONL(&reqBuf, reqs); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteUpdatesJSONL(&upBuf, ups); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCatalogJSON(&catBuf, catalog); err != nil {
		t.Fatal(err)
	}
	reqs2, err := workload.ReadRequestsJSONL(&reqBuf)
	if err != nil {
		t.Fatal(err)
	}
	ups2, err := workload.ReadUpdatesJSONL(&upBuf)
	if err != nil {
		t.Fatal(err)
	}
	catalog2, err := workload.ReadCatalogJSON(&catBuf, 0.8)
	if err != nil {
		t.Fatal(err)
	}

	gf, err := ecg.NewCoordinator(nw, prober, ecg.SDSL(8, 3, 1), src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(5)
	if err != nil {
		t.Fatal(err)
	}

	run := func(c *ecg.Catalog, r []ecg.Request, u []ecg.Update) *ecg.Report {
		sim, err := ecg.NewSimulator(nw, plan.Groups(), c, ecg.DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(r, u)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	repA := run(catalog, reqs, ups)
	repB := run(catalog2, reqs2, ups2)
	if repA.MeanLatency() != repB.MeanLatency() || repA.Requests() != repB.Requests() {
		t.Fatalf("round-tripped trace changed the simulation: %v/%d vs %v/%d",
			repA.MeanLatency(), repA.Requests(), repB.MeanLatency(), repB.Requests())
	}
}

// TestTopologySerializationPreservesPlans: a graph serialized and reloaded
// must yield identical group formation results.
func TestTopologySerializationPreservesPlans(t *testing.T) {
	src := ecg.NewRand(201)
	graph, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topology"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ecg.WriteGraphJSON(&buf, graph); err != nil {
		t.Fatal(err)
	}
	graph2, err := ecg.ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	form := func(g *ecg.Graph) []int {
		s := ecg.NewRand(202)
		nw, err := ecg.NewNetwork(g, ecg.PlaceParams{NumCaches: 40}, s.Split("place"))
		if err != nil {
			t.Fatal(err)
		}
		prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), s.Split("probe"))
		if err != nil {
			t.Fatal(err)
		}
		gf, err := ecg.NewCoordinator(nw, prober, ecg.SL(6, 3), s.Split("gf"))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gf.FormGroups(4)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Assignments
	}
	a, b := form(graph), form(graph2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment %d differs after topology round trip", i)
		}
	}
}

// TestFlashCrowdReducesOriginShare: during a flash crowd the hot set is
// shared across all caches, so the edge network (local + group hits)
// absorbs more traffic and the origin's share of requests must fall versus
// the same trace without the episode.
func TestFlashCrowdReducesOriginShare(t *testing.T) {
	nw, prober, src := buildStack(t, 60, 203)
	catalog, err := ecg.NewCatalog(ecg.DefaultCatalogParams(), src.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ecg.NewCoordinator(nw, prober, ecg.SDSL(8, 3, 1), src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(6)
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 200, RequestRatePerCache: 1, Similarity: 0.7}

	baseReqs, err := ecg.GenerateRequests(catalog, 60, tp, src.Split("base"))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ecg.NewFlashCrowd(catalog, ecg.FlashCrowdParams{
		StartSec:  50,
		EndSec:    150,
		HotDocs:   10,
		Share:     0.8,
		RateBoost: 2,
	}, src.Split("fc"))
	if err != nil {
		t.Fatal(err)
	}
	fcReqs, err := fc.GenerateRequests(60, tp, src.Split("fcreqs"))
	if err != nil {
		t.Fatal(err)
	}

	originRate := func(reqs []ecg.Request) float64 {
		sim, err := ecg.NewSimulator(nw, plan.Groups(), catalog, ecg.DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, origin := rep.HitRates()
		return origin
	}
	base := originRate(baseReqs)
	flash := originRate(fcReqs)
	if flash >= base {
		t.Fatalf("flash crowd did not reduce origin share: %v vs %v", flash, base)
	}
}

// TestSchemeComparisonThroughPublicAPI: the headline result — SDSL beats
// SL — must be reproducible with nothing but the facade.
func TestSchemeComparisonThroughPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation comparison")
	}
	nw, prober, src := buildStack(t, 120, 204)
	catalog, err := ecg.NewCatalog(ecg.DefaultCatalogParams(), src.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 240, RequestRatePerCache: 1, Similarity: 0.85}
	reqs, err := ecg.GenerateRequests(catalog, 120, tp, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := ecg.GenerateUpdates(catalog, 240, src.Split("ups"))
	if err != nil {
		t.Fatal(err)
	}
	mean := func(cfg ecg.SchemeConfig) float64 {
		gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf/"+cfg.Name()))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gf.FormGroups(12)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := ecg.NewSimulator(nw, plan.Groups(), catalog, ecg.DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanLatency()
	}
	sl := mean(ecg.SL(12, 4))
	sdsl := mean(ecg.SDSL(12, 4, 1))
	if sdsl >= sl*1.02 {
		t.Fatalf("SDSL (%v) not competitive with SL (%v) through the facade", sdsl, sl)
	}
}

// TestKMedoidsAndVivaldiThroughFacade exercises the extension knobs from
// the public API.
func TestKMedoidsAndVivaldiThroughFacade(t *testing.T) {
	nw, prober, src := buildStack(t, 50, 205)

	cfg := ecg.SL(8, 3)
	cfg.Algorithm = ecg.AlgoKMedoids
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf1"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumGroups() != 5 {
		t.Fatalf("kmedoids groups = %d", plan.NumGroups())
	}
	sil, err := ecg.Silhouette(plan.Points, plan.Assignments, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sil <= -1 || sil >= 1 {
		t.Fatalf("silhouette out of range: %v", sil)
	}

	gfV, err := ecg.NewCoordinator(nw, prober, ecg.VivaldiScheme(8, 3, 4), src.Split("gf2"))
	if err != nil {
		t.Fatal(err)
	}
	planV, err := gfV.FormGroups(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(planV.Points[0]) != 4 {
		t.Fatalf("vivaldi dim = %d", len(planV.Points[0]))
	}
}

// TestWaxmanSubstrateThroughFacade forms groups on the flat substrate.
func TestWaxmanSubstrateThroughFacade(t *testing.T) {
	src := ecg.NewRand(206)
	params := ecg.DefaultWaxmanParams()
	params.Nodes = 200
	graph, err := ecg.GenerateWaxman(params, src.Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: 60}, src.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ecg.NewCoordinator(nw, prober, ecg.SL(8, 3), src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(6)
	if err != nil {
		t.Fatal(err)
	}
	if cost := ecg.AvgGroupInteractionCost(nw, plan.Groups()); cost <= 0 {
		t.Fatalf("GICost = %v", cost)
	}
}

// TestMaintainerThroughFacade drives a maintenance round over a real plan
// via the public API.
func TestMaintainerThroughFacade(t *testing.T) {
	nw, prober, src := buildStack(t, 40, 210)
	gf, err := ecg.NewCoordinator(nw, prober, ecg.SL(6, 3), src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	source := func(i ecg.CacheIndex) (ecg.FeatureVector, error) {
		vals, err := prober.MeasureTo(ecg.CacheEndpoint(i), plan.Landmarks)
		if err != nil {
			return nil, err
		}
		return ecg.FeatureVector(vals), nil
	}
	cfg := ecg.DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	m, err := ecg.NewMaintainer(plan, source, nil, cfg, src.Split("maint"))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Drifted) != 0 {
		t.Fatalf("deterministic prober produced drift: %+v", ev)
	}
	m.Stop()
}
