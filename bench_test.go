package ecg_test

// Benchmark harness: the benchmarks scripts/bench.sh records into
// BENCH_pipeline.json. The Fig3 sweep runs one paper experiment end to
// end at reduced scale; the rest time the hot substrate paths, the
// observability record paths and the lint engine.
//
// Every figure, ablation and extension study is pinned by
// internal/experiments' TestResultsGolden; use cmd/ecgsim -fig for the
// paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"os"
	"testing"

	ecg "edgecachegroups"
	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/experiments"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/lint"
	"edgecachegroups/internal/netsim"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// benchOptions returns the scaled-down experiment options used by the
// Fig3 sweep.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.12, Parallelism: 4, Trials: 1}
}

func BenchmarkFig3GroupSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrate hot paths ---

func benchTopology(b *testing.B) *topology.Graph {
	b.Helper()
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkProbeMeasure(b *testing.B) {
	g := benchTopology(b)
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 100}, simrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	p, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Measure(probe.Cache(topology.CacheIndex(i%100)), probe.Origin()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBlobMatrix builds an n×dim flat feature matrix of points scattered
// around `blobs` well-separated centers — the clustered geometry real
// landmark-RTT feature sets exhibit, and the regime where bounds pruning
// is representative.
func benchBlobMatrix(n, dim, blobs int, src *simrand.Source) cluster.Matrix {
	centers := cluster.NewMatrix(blobs, dim)
	for c := 0; c < blobs; c++ {
		row := centers.Row(c)
		for j := range row {
			row[j] = src.Uniform(0, 300)
		}
	}
	m := cluster.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(i % blobs)
		row := m.Row(i)
		for j := range row {
			row[j] = c[j] + src.Uniform(-12, 12)
		}
	}
	return m
}

// benchKMeansFlat runs the large-N flat-matrix K-means (100k×16, k=64) at
// the given prune mode. Results are bit-identical across both modes (pinned
// by the cluster golden tests); only wall clock and the distance-evaluation
// count change. The mean DistEvals per op is reported as "distevals/op" so
// the pruning win is a committed, diffable number in BENCH_pipeline.json.
func benchKMeansFlat(b *testing.B, mode cluster.PruneMode) {
	src := simrand.New(16)
	points := benchBlobMatrix(100_000, 16, 64, src)
	opts := cluster.DefaultOptions()
	opts.Prune = mode
	var evals int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.KMeansMatrix(points, 64, cluster.UniformSeeder{}, opts, src.SplitN("km", i))
		if err != nil {
			b.Fatal(err)
		}
		evals += res.DistEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "distevals/op")
}

func BenchmarkKMeansFlatExhaustive(b *testing.B) { benchKMeansFlat(b, cluster.PruneNone) }
func BenchmarkKMeansFlatPruned(b *testing.B)     { benchKMeansFlat(b, cluster.PruneAuto) }

// BenchmarkFeatureBuild measures the probe→flat-feature-matrix assembly —
// core.MeasureFeatureMatrix, the exact path FormGroups runs — and guards
// (Obs-style, inline) that building features for N caches performs O(1)
// slice allocations: the flat matrix replaces the per-cache vector
// allocations, and the per-worker probe.Measurer replaces the per-probe
// RNG allocations, so the allocation count must not grow with N. The same
// guard covers Prober.MeasureMatrix, the landmark-selection probe path.
func BenchmarkFeatureBuild(b *testing.B) {
	g := benchTopology(b)
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 200}, simrand.New(17))
	if err != nil {
		b.Fatal(err)
	}
	cfg := probe.DefaultConfig()
	cfg.Parallelism = 1
	p, err := probe.NewProber(nw, cfg, simrand.New(18))
	if err != nil {
		b.Fatal(err)
	}
	lms := []probe.Endpoint{
		probe.Origin(), probe.Cache(0), probe.Cache(20), probe.Cache(40),
		probe.Cache(80), probe.Cache(120), probe.Cache(160), probe.Cache(199),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.MeasureFeatureMatrix(p, 200, lms, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	allocsFor := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := core.MeasureFeatureMatrix(p, n, lms, 1); err != nil {
				b.Fatal(err)
			}
		})
	}
	a50, a200 := allocsFor(50), allocsFor(200)
	if a200 > a50+1 {
		b.Fatalf("feature build allocations scale with N: %v allocs for N=50 vs %v for N=200, want O(1)", a50, a200)
	}

	// The landmark-selection matrix (Prober.MeasureMatrix) must likewise
	// cost O(workers) allocations, serial and fanned out: quadrupling the
	// pair count must not add allocations.
	endpoints := []probe.Endpoint{probe.Origin()}
	for i := 0; len(endpoints) < 100; i++ {
		endpoints = append(endpoints, probe.Cache(topology.CacheIndex(i)))
	}
	fanned, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(18))
	if err != nil {
		b.Fatal(err)
	}
	for _, mp := range []*probe.Prober{p, fanned} {
		matrixAllocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := mp.MeasureMatrix(endpoints[:n]); err != nil {
					b.Fatal(err)
				}
			})
		}
		m50, m100 := matrixAllocs(50), matrixAllocs(100)
		if m100 > m50+1 {
			b.Fatalf("MeasureMatrix (parallelism %d) allocations scale with pairs: %v allocs for 50 endpoints vs %v for 100, want O(workers)",
				mp.Config().Parallelism, m50, m100)
		}
	}
}

func BenchmarkGreedyLandmarkSelection(b *testing.B) {
	g := benchTopology(b)
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 500}, simrand.New(6))
	if err != nil {
		b.Fatal(err)
	}
	p, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	params := landmark.Params{L: 25, M: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (landmark.Greedy{}).Select(p, 500, params, simrand.New(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	g := benchTopology(b)
	const n = 200
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: n}, simrand.New(10))
	if err != nil {
		b.Fatal(err)
	}
	catalog, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(11))
	if err != nil {
		b.Fatal(err)
	}
	tp := workload.TraceParams{DurationSec: 120, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := workload.GenerateRequests(catalog, n, tp, simrand.New(12))
	if err != nil {
		b.Fatal(err)
	}
	ups, err := workload.GenerateUpdates(catalog, 120, simrand.New(13))
	if err != nil {
		b.Fatal(err)
	}
	groups := make([][]topology.CacheIndex, 20)
	for i := 0; i < n; i++ {
		groups[i%20] = append(groups[i%20], topology.CacheIndex(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := netsim.New(nw, groups, catalog, netsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(reqs, ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}

// BenchmarkNewNetwork times the exact RTT build of the form-sdsl
// benchmark workload at seed 1: the default transit-stub topology with
// stub domains added until 2001 stub routers exist, then the origin and
// 2000 caches placed on it, so 2001 single-source runs and the fold.
func BenchmarkNewNetwork(b *testing.B) {
	const caches = 2000
	p := topology.DefaultTransitStubParams()
	for p.StubNodeCount() < caches+1 {
		p.StubDomainsPerTransitNode++
	}
	root := simrand.New(1)
	g, err := topology.GenerateTransitStub(p, root.Split("topology"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: caches}, root.Split("placement")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateRequests times the simulate workload's request-log
// synthesis: 500 caches' runs at the default trace parameters, merged into
// one time-ordered stream.
func BenchmarkGenerateRequests(b *testing.B) {
	catalog, err := workload.NewCatalog(workload.DefaultCatalogParams(), simrand.New(11))
	if err != nil {
		b.Fatal(err)
	}
	var reqs []workload.Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reqs, err = workload.GenerateRequests(catalog, 500, workload.DefaultTraceParams(), simrand.New(12)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}

// BenchmarkObsHistogram measures the enabled histogram record path — the
// per-request cost the simulator pays at merge time when an Obs sink is
// attached. The contract is 0 allocs/op (pinned hard by the
// AllocsPerRun guard in internal/obs).
func BenchmarkObsHistogram(b *testing.B) {
	o := ecg.NewObs()
	h := o.Registry().Histogram("bench_latency_ms")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i%1000) + 0.5)
	}
	if a := testing.AllocsPerRun(100, func() { h.Record(42) }); a != 0 {
		b.Fatalf("enabled Record allocates %v per op, want 0", a)
	}
}

// BenchmarkObsDisabled measures the disabled path: the same record call
// against nil handles, which is what every instrumented site costs when
// no -obs-addr sink is attached. This must stay within a couple of
// nanoseconds (a nil check), so observability never taxes obs-free runs.
func BenchmarkObsDisabled(b *testing.B) {
	var o *ecg.Obs // disabled: all derived handles are nil and no-op
	h := o.Registry().Histogram("bench_latency_ms")
	c := o.Registry().Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i))
		c.Inc()
	}
	if a := testing.AllocsPerRun(100, func() { h.Record(42); c.Inc() }); a != 0 {
		b.Fatalf("disabled path allocates %v per op, want 0", a)
	}
}

// BenchmarkEcglintModule times a full-module run of the interprocedural
// lint engine — load, type-check, call-graph construction, summary
// fixpoint, and all analyzers over every non-testdata package. This is
// the cost a CI lint gate pays per invocation; tracked non-blocking so
// engine growth (new rules, deeper summaries) stays visible in the
// baseline without failing builds. The first op in a process also pays
// the standard library's export-data lookups, which later ops reuse.
func BenchmarkEcglintModule(b *testing.B) {
	cwd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.Load(cwd, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if findings := lint.Run(pkgs, lint.Analyzers()); len(findings) != 0 {
			b.Fatalf("module is not lint-clean: %d findings", len(findings))
		}
	}
}
