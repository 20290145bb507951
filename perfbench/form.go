package main

import (
	"fmt"
	"math"
	"runtime"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// The paper's SDSL setting (§5): L landmarks including the origin, a
// potential landmark set of M·(L−1) caches, server-distance sensitivity θ.
const (
	numLandmarks = 25
	plsetM       = 4
	theta        = 1.0
)

const (
	formCaches = 2000
	formK      = 80
)

// network is the generated edge cache network a workload runs on.
type network struct {
	nw     *topology.Network
	prober *probe.Prober
}

// transitStub is the default transit-stub topology with stub domains added
// until there is a distinct stub router for the origin and every cache.
func transitStub(caches int) topology.TransitStubParams {
	p := topology.DefaultTransitStubParams()
	for p.StubNodeCount() < caches+1 {
		p.StubDomainsPerTransitNode++
	}
	return p
}

// buildNetwork generates the topology, places the origin and the caches
// (computing all-pairs RTTs) and builds the prober, each from its own split
// of root.
func buildNetwork(tr *tracer, parent int, root *simrand.Source, caches int) (*network, error) {
	sp := tr.start("topology.generate", parent)
	g, err := topology.GenerateTransitStub(transitStub(caches), root.Split("topology"))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	sp = tr.start("topology.network", parent)
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: caches}, root.Split("placement"))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("place network: %w", err)
	}
	prober, err := probe.NewProber(nw, probe.DefaultConfig(), root.Split("probe"))
	if err != nil {
		return nil, fmt.Errorf("build prober: %w", err)
	}
	return &network{nw: nw, prober: prober}, nil
}

// sdslConfig is the SDSL scheme with the CLI's defaults: plan verification
// on, default parallelism.
func sdslConfig() core.Config {
	cfg := core.SDSL(numLandmarks, plsetM, theta)
	cfg.Verify = true
	return cfg
}

// formPlan forms the plan a simulate or daemon-drift workload starts from.
func formPlan(tr *tracer, parent int, net *network, src *simrand.Source, k int) (*core.Plan, error) {
	gf, err := core.NewCoordinator(net.nw, net.prober, sdslConfig(), src)
	if err != nil {
		return nil, err
	}
	sp := tr.start("core.form", parent)
	defer tr.end(sp)
	plan, err := gf.FormGroups(k)
	if err != nil {
		return nil, fmt.Errorf("form groups: %w", err)
	}
	return plan, nil
}

// runFormSDSL measures the paper's formation path: each operation is one
// Coordinator.FormGroups call over the same network and seed, so every
// operation must return the same plan.
func runFormSDSL(r *runner) error {
	var (
		net *network
		gf  *core.Coordinator
		src *simrand.Source
	)
	release := func() error {
		net, gf, src = nil, nil, nil
		return nil
	}
	setupS, err := timeSetups(r.out, r.tr, release, func(parent int) error {
		root := simrand.New(r.opts.seed)
		var err error
		if net, err = buildNetwork(r.tr, parent, root, formCaches); err != nil {
			return err
		}
		src = root.Split("formation")
		gf, err = core.NewCoordinator(net.nw, net.prober, sdslConfig(), src)
		return err
	})
	if err != nil {
		return err
	}
	r.layer["topology.generate_ms"] = r.tr.medianMS("topology.generate")
	r.layer["topology.network_ms"] = r.tr.medianMS("topology.network")

	// Warm-up: the first formation also fixes the checksum every later one
	// must reproduce.
	first, err := gf.FormGroups(formK)
	if err != nil {
		return fmt.Errorf("warm-up formation: %w", err)
	}
	want := first.Checksum()
	last := first // the latest plan, reachable when heap_mb is read
	form := func(allocs *[]float64) func() error {
		return func() error {
			a0 := allocBytes()
			plan, err := gf.FormGroups(formK)
			if allocs != nil {
				*allocs = append(*allocs, float64(allocBytes()-a0)/1e6)
			}
			if err != nil {
				return err
			}
			last = plan
			if got := plan.Checksum(); got != want {
				return fmt.Errorf("plan checksum %016x, first formation gave %016x", got, want)
			}
			return nil
		}
	}

	total, half := r.measured()
	if !r.opts.trace {
		st := r.repeatOps(total, 5, form(nil))
		r.setOpMetrics(st, setupS, heapMB())
		runtime.KeepAlive(gf)
		runtime.KeepAlive(last)
		fmt.Fprintf(r.out, "# form-sdsl: n=%d p50=%.4gms p90=%.4gms cpu/op=%.4gms checksum=%016x\n",
			len(st.lat), median(st.lat), quantile(st.lat, 0.9), r.e2e["cpu_ms"], want)
		return nil
	}

	var allocs []float64
	plain := r.repeatOps(half, 3, form(&allocs))
	r.layer["core.form_alloc_mb"] = median(allocs)

	var counts replayCounts
	traced := r.repeatOps(half, 3, func() error {
		op := r.tr.start("form.replay", -1)
		defer r.tr.end(op)
		plan, err := replayFormation(r.tr, op, net, src, formK, &counts)
		if err != nil {
			return err
		}
		if got := plan.Checksum(); got != want {
			return fmt.Errorf("replayed plan checksum %016x, FormGroups gave %016x", got, want)
		}
		return nil
	})
	r.setProcLayer(traced.ph)
	var sum float64
	for _, name := range []string{"landmark.select", "probe.features", "cluster.kmeans", "verify.plan"} {
		v := r.tr.medianMS(name)
		r.layer[name+"_ms"] = v
		sum += v
	}
	r.layer["landmark.probes"] = float64(counts.probes)
	r.layer["probe.measurements"] = float64(counts.measurements)
	r.layer["probe.alloc_mb"] = median(counts.probeAllocMB)
	r.layer["cluster.iterations"] = float64(counts.iterations)
	r.layer["cluster.distevals"] = float64(counts.distEvals)
	latency := median(plain.lat)
	r.layer["obs.trace_overhead_pct"] = pct(median(traced.lat), latency)
	r.layer["obs.layer_gap_pct"] = pct(sum, latency)
	fmt.Fprintf(r.out, "# form-sdsl traced: FormGroups p50=%.4gms, replay p50=%.4gms, layer sum=%.4gms\n",
		latency, median(traced.lat), sum)
	return nil
}

// replayCounts holds the work counters of the last formation replay.
type replayCounts struct {
	probes, measurements int64
	iterations           int
	distEvals            int64
	probeAllocMB         []float64
}

// minServerDistMS mirrors the floor FormGroups applies to measured server
// distances before weighting a cache by 1/dist^θ.
const minServerDistMS = 1.0

// replayFormation repeats Coordinator.FormGroups step by step through the
// layer functions, with the seed splits FormGroups takes from src, and
// records a span around each layer call. Its plan must equal FormGroups'.
func replayFormation(tr *tracer, parent int, net *network, src *simrand.Source, k int, c *replayCounts) (*core.Plan, error) {
	cfg := sdslConfig()
	n := net.nw.NumCaches()

	p0 := net.prober.ProbesSent()
	sp := tr.start("landmark.select", parent)
	lms, err := landmark.Greedy{}.Select(net.prober, n, cfg.Landmarks, src.Split("landmarks"))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("select landmarks: %w", err)
	}
	c.probes = net.prober.ProbesSent() - p0

	m0, a0 := net.prober.Measurements(), allocBytes()
	sp = tr.start("probe.features", parent)
	features, serverDist, err := core.MeasureFeatureMatrix(net.prober, n, lms, cfg.ProbeParallelism)
	tr.end(sp)
	c.probeAllocMB = append(c.probeAllocMB, float64(allocBytes()-a0)/1e6)
	if err != nil {
		return nil, fmt.Errorf("measure features: %w", err)
	}
	c.measurements = net.prober.Measurements() - m0

	sp = tr.start("cluster.kmeans", parent)
	weights := make([]float64, len(serverDist))
	for i, d := range serverDist {
		weights[i] = 1 / math.Pow(math.Max(d, minServerDistMS), cfg.Theta)
	}
	res, err := cluster.KMeansMatrix(features, k, cluster.WeightedSeeder{Weights: weights}, cfg.Cluster, src.Split("kmeans"))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.iterations, c.distEvals = res.Iterations, res.DistEvals

	views := features.RowViews()
	plan := &core.Plan{
		Scheme:      cfg.Name(),
		Landmarks:   lms,
		Features:    views,
		Points:      views,
		ServerDist:  serverDist,
		Assignments: res.Assignments,
		Centers:     res.Centers,
		Algorithm:   core.AlgoKMeans,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
	}
	sp = tr.start("verify.plan", parent)
	err = plan.Verify(net.nw)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("verify plan: %w", err)
	}
	return plan, nil
}
