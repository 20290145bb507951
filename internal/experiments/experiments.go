// Package experiments regenerates every figure of the paper's evaluation
// (Figures 3–9) plus ablation studies on the design parameters. Each
// experiment returns a typed result that renders as an aligned text table
// mirroring the corresponding figure's series.
//
// Experiments are deterministic in Options.Seed and scale down gracefully
// via Options.Scale so the full suite can run as Go benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/netsim"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/par"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Scale in (0,1] shrinks network sizes, trace length, and sweep grids
	// proportionally; 1.0 reproduces the paper's scale (up to 500 caches).
	Scale float64
	// Parallelism bounds concurrent sweep-point execution; 0 means
	// a sensible default. Each simulation is one serial event loop, so
	// sweeps use several cores by running simulations side by side.
	Parallelism int
	// Trials averages stochastic experiments over this many seeds; 0 means
	// the default (1 at full scale).
	Trials int
	// Obs is the optional observability sink: every study's formations,
	// simulations and protocol rounds report to it. Like Parallelism, it
	// never affects results.
	Obs *obs.Obs
}

// DefaultOptions returns full-scale, single-trial options.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: 1, Parallelism: 4, Trials: 1}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Scale <= 0 || o.Scale > 1 || math.IsNaN(o.Scale) {
		return fmt.Errorf("experiments: Scale must be in (0,1], got %v", o.Scale)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiments: Parallelism must be >= 0, got %d", o.Parallelism)
	}
	if o.Trials < 0 {
		return fmt.Errorf("experiments: Trials must be >= 0, got %d", o.Trials)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Parallelism == 0 {
		o.Parallelism = 4
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	return o
}

// scaleInt scales n by o.Scale, never below minimum.
func (o Options) scaleInt(n, minimum int) int {
	v := int(math.Round(float64(n) * o.Scale))
	if v < minimum {
		v = minimum
	}
	return v
}

// Paper-scale experiment constants (§5).
const (
	paperNumLandmarks = 25  // L
	paperPLSetM       = 4   // M
	paperMaxCaches    = 500 // largest evaluated network
	paperTraceSec     = 600
	paperRequestRate  = 0.6
	paperSimilarity   = 0.8
)

// env bundles the shared per-network-size experimental setup. newEnv
// builds the only one from scratch; a study that varies one part copies
// its base env and replaces that field, so every derived env keeps the
// base's traces, verification and observability sink.
type env struct {
	nw       *topology.Network
	prober   *probe.Prober
	catalog  *workload.Catalog
	requests []workload.Request
	updates  []workload.Update
	simCfg   netsim.Config
	obs      *obs.Obs
}

// newEnv builds the simulation environment for a network of numCaches
// caches. withTraces controls whether request/update logs are generated
// (GICost-only experiments skip them).
func newEnv(numCaches int, o Options, seed int64, withTraces bool) (*env, error) {
	root := simrand.New(seed)

	topoParams := topology.DefaultTransitStubParams()
	g, err := topology.GenerateTransitStub(topoParams, root.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: numCaches}, root.Split("placement"))
	if err != nil {
		return nil, fmt.Errorf("place network: %w", err)
	}
	prober, err := probe.NewProber(nw, probe.DefaultConfig(), root.Split("probe"))
	if err != nil {
		return nil, fmt.Errorf("build prober: %w", err)
	}
	e := &env{nw: nw, prober: prober, simCfg: netsim.DefaultConfig(), obs: o.Obs}
	e.simCfg.Verify = true
	e.simCfg.Obs = o.Obs
	if !withTraces {
		return e, nil
	}

	catParams := workload.DefaultCatalogParams()
	catParams.NumDocuments = maxInt(200, int(float64(catParams.NumDocuments)*o.Scale))
	catalog, err := workload.NewCatalog(catParams, root.Split("catalog"))
	if err != nil {
		return nil, fmt.Errorf("build catalog: %w", err)
	}
	traceParams := workload.TraceParams{
		DurationSec:         math.Max(120, paperTraceSec*o.Scale),
		RequestRatePerCache: paperRequestRate,
		Similarity:          paperSimilarity,
	}
	requests, err := workload.GenerateRequests(catalog, numCaches, traceParams, root.Split("requests"))
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	updates, err := workload.GenerateUpdates(catalog, traceParams.DurationSec, root.Split("updates"))
	if err != nil {
		return nil, fmt.Errorf("generate updates: %w", err)
	}
	e.catalog = catalog
	e.requests = requests
	e.updates = updates
	// Scale per-cache capacity with the catalog so hit rates stay in the
	// regime the paper operates in (~2-3% of the catalog per cache).
	e.simCfg.CacheCapacityKB = 0.03 * float64(catParams.NumDocuments) * catParams.MeanSizeKB
	return e, nil
}

// formGroups runs a scheme on the environment. Every plan is verified
// (partition well-formedness, centers-are-means), as every report is
// (conservation laws), so a silently inconsistent run cannot make it into
// a rendered table.
func (e *env) formGroups(cfg core.Config, k int, src *simrand.Source) (*core.Plan, error) {
	cfg.Verify = true
	cfg.Obs = e.obs
	gf, err := core.NewCoordinator(e.nw, e.prober, cfg, src)
	if err != nil {
		return nil, err
	}
	return gf.FormGroups(k)
}

// simulate forms groups with cfg and replays the traces, returning the
// run report.
func (e *env) simulate(cfg core.Config, k int, src *simrand.Source) (*netsim.Report, *core.Plan, error) {
	plan, err := e.formGroups(cfg, k, src)
	if err != nil {
		return nil, nil, fmt.Errorf("form groups: %w", err)
	}
	sim, err := netsim.New(e.nw, plan.Groups(), e.catalog, e.simCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("build simulator: %w", err)
	}
	rep, err := sim.Run(e.requests, e.updates)
	if err != nil {
		return nil, nil, fmt.Errorf("run simulation: %w", err)
	}
	return rep, plan, nil
}

// slVsSDSL simulates an SL and then an SDSL (θ = DefaultTheta) plan of k
// groups and returns their mean latencies.
func (e *env) slVsSDSL(l, m, k int, slSrc, sdslSrc *simrand.Source) (sl, sdsl float64, err error) {
	repSL, _, err := e.simulate(core.SL(l, m), k, slSrc)
	if err != nil {
		return 0, 0, fmt.Errorf("SL: %w", err)
	}
	repSD, _, err := e.simulate(core.SDSL(l, m, DefaultTheta), k, sdslSrc)
	if err != nil {
		return 0, 0, fmt.Errorf("SDSL: %w", err)
	}
	return repSL.MeanLatency(), repSD.MeanLatency(), nil
}

// sweep runs one study's trial × sweep-point grid. Each trial builds the
// env of n caches at its trial seed and a source seeded at that seed plus
// the study's offset, then runs fn once per sweep point on the worker
// pool. Trials run in order, so per-point accumulation across trials is
// deterministic.
func sweep(o Options, n int, withTraces bool, offset int64, points int,
	fn func(e *env, seed int64, src *simrand.Source, i int) error) error {
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		e, err := newEnv(n, o, seed, withTraces)
		if err != nil {
			return err
		}
		src := simrand.New(seed + offset)
		err = forEach(points, o.Parallelism, func(i int) error { return fn(e, seed, src, i) })
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs fn over [0,n) on the shared worker pool, reporting the
// lowest-index sweep-point error.
func forEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = 4
	}
	errs := make([]error, n)
	par.ForEach(n, workers, func(i int) { errs[i] = fn(i) })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
