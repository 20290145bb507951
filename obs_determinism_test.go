package ecg_test

// Observability determinism golden tests: attaching an Obs sink must be a
// pure side channel. Plan and Report checksums have to stay bit-identical
// whether obs is enabled or disabled, at any worker count — the sink may
// observe the pipeline but never steer it.

import (
	"strings"
	"testing"

	ecg "edgecachegroups"
)

// runObsPipeline executes the full pipeline (formation + simulation) for
// one seed with the given obs sink and pipeline parallelism, returning both
// checksums and the report.
func runObsPipeline(t *testing.T, seed int64, o *ecg.Obs, parallelism int) (uint64, uint64, *ecg.Report) {
	t.Helper()
	cfg := ecg.SDSL(8, 2, 1.0)
	cfg.Verify = true
	cfg.Obs = o
	if parallelism > 0 {
		cfg = ecg.WithParallelism(cfg, parallelism)
	}
	nw, prober, src := buildStack(t, 60, seed)
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(6)
	if err != nil {
		t.Fatal(err)
	}

	wsrc := ecg.NewRand(seed + 1000)
	catalog, err := ecg.NewCatalog(ecg.DefaultCatalogParams(), wsrc.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 40, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := ecg.GenerateRequests(catalog, 60, tp, wsrc.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := ecg.GenerateUpdates(catalog, 40, wsrc.Split("ups"))
	if err != nil {
		t.Fatal(err)
	}
	simCfg := ecg.DefaultSimConfig()
	simCfg.Verify = true
	simCfg.Obs = o
	sim, err := ecg.NewSimulator(nw, plan.Groups(), catalog, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Checksum(), rep.Checksum(), rep
}

// TestObsChecksumInvariant is the determinism contract for the
// observability layer: at every parallelism the plan and report checksums
// with obs attached must equal the obs-free serial baseline bit for bit.
func TestObsChecksumInvariant(t *testing.T) {
	const seed = 55
	basePlan, baseReport, _ := runObsPipeline(t, seed, nil, 1)
	for _, par := range []int{1, 8} {
		o := ecg.NewObs()
		planSum, repSum, rep := runObsPipeline(t, seed, o, par)
		if planSum != basePlan {
			t.Errorf("Parallelism=%d: obs changed plan checksum %016x != %016x", par, planSum, basePlan)
		}
		if repSum != baseReport {
			t.Errorf("Parallelism=%d: obs changed report checksum %016x != %016x", par, repSum, baseReport)
		}
		// The sink must also have seen the whole run: every simulated
		// request records exactly one latency sample.
		snap := o.Registry().Snapshot()
		hist, ok := snap.Histograms["sim_request_latency_ms"]
		if !ok {
			t.Fatalf("Parallelism=%d: sim_request_latency_ms missing from snapshot", par)
		}
		if hist.Count != rep.Requests() {
			t.Errorf("Parallelism=%d: histogram count %d != %d simulated requests",
				par, hist.Count, rep.Requests())
		}
		outcomes := snap.Counters["sim_requests_local_total"] +
			snap.Counters["sim_requests_group_total"] +
			snap.Counters["sim_requests_origin_total"] +
			snap.Counters["sim_requests_failover_total"]
		if outcomes != rep.Requests() {
			t.Errorf("Parallelism=%d: outcome counters sum to %d, want %d", par, outcomes, rep.Requests())
		}
	}
}

// TestObsOnOffSameRun pins the complementary direction: two obs-enabled
// runs agree with each other (the sink itself introduces no run-to-run
// jitter into the results).
func TestObsOnOffSameRun(t *testing.T) {
	p1, r1, _ := runObsPipeline(t, 91, ecg.NewObs(), 4)
	p2, r2, _ := runObsPipeline(t, 91, ecg.NewObs(), 4)
	if p1 != p2 {
		t.Fatalf("obs-enabled runs disagree on plan checksum: %016x vs %016x", p1, p2)
	}
	if r1 != r2 {
		t.Fatalf("obs-enabled runs disagree on report checksum: %016x vs %016x", r1, r2)
	}
}

// TestStageSpansShareOneObs pins the stage-timing contract: each
// FormGroups and Run stage records one sample per invocation into its
// stage_<name>_ms histogram, and two coordinators and simulators sharing
// one Obs add up instead of overwriting each other.
func TestStageSpansShareOneObs(t *testing.T) {
	o := ecg.NewObs()
	stages := []string{"landmark_select", "probe_features", "cluster", "verify", "simulate", "verify_report"}
	for run := int64(1); run <= 2; run++ {
		runObsPipeline(t, 55, o, 1)
		snap := o.Registry().Snapshot()
		for _, stage := range stages {
			if got := snap.Histograms["stage_"+stage+"_ms"].Count; got != run {
				t.Errorf("after %d runs: stage_%s_ms count = %d, want %d", run, stage, got, run)
			}
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "stage_") {
				t.Errorf("stage gauge %s still published", name)
			}
		}
	}

	nw, prober, src := buildStack(t, 40, 56)
	cfg := ecg.EuclideanScheme(6, 2, 3)
	cfg.Obs = o
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gf.FormGroups(4); err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	if got := snap.Histograms["stage_embed_ms"].Count; got != 1 {
		t.Errorf("stage_embed_ms count = %d, want 1", got)
	}
	if got := snap.Histograms["stage_cluster_ms"].Count; got != 3 {
		t.Errorf("stage_cluster_ms count = %d, want 3", got)
	}
}
