// Package ecg (Edge Cache Groups) is a library for forming cooperative
// groups of CDN edge caches, reproducing "Efficient Formation of Edge Cache
// Groups for Dynamic Content Delivery" (Ramaswamy, Liu & Zhang, ICDCS 2006).
//
// The library covers the complete pipeline of the paper:
//
//   - a transit-stub Internet topology generator and edge-cache placement
//     (the GT-ITM-style substrate the paper simulates on),
//   - a landmark probing layer with realistic measurement noise,
//   - the SL scheme: greedy max-min landmark selection, RTT feature
//     vectors, and K-means clustering into K cooperative groups,
//   - the SDSL scheme: server-distance-sensitive seeding that builds
//     compact groups near the origin server and larger groups far from it,
//   - a GNP (Euclidean embedding) baseline representation,
//   - a discrete event simulator for the cooperative edge cache network
//     (utility-based caching, cooperative miss handling, origin updates),
//   - the paper's evaluation metrics and every figure of its evaluation
//     section as a reproducible experiment.
//
// # Quick start
//
//	src := ecg.NewRand(42)
//	graph, _ := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topo"))
//	nw, _ := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: 200}, src.Split("place"))
//	prober, _ := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
//	gf, _ := ecg.NewCoordinator(nw, prober, ecg.SDSL(25, 4, 1.0), src.Split("gf"))
//	plan, _ := gf.FormGroups(20)
//	fmt.Println(plan.Sizes())
//
// See the examples/ directory for runnable programs and the cmd/ecgsim
// binary for the full evaluation suite.
package ecg

import (
	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/gnp"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/netsim"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
	"edgecachegroups/internal/workload"
)

// Randomness.
type (
	// Rand is a deterministic random source; derive independent child
	// streams with Split for concurrent components.
	Rand = simrand.Source
)

// NewRand returns a deterministic random source seeded with seed.
func NewRand(seed int64) *Rand { return simrand.New(seed) }

// Topology substrate.
type (
	// Graph is an undirected weighted Internet topology graph.
	Graph = topology.Graph
	// Node is a router in the topology.
	Node = topology.Node
	// NodeID identifies a router.
	NodeID = topology.NodeID
	// NodeKind distinguishes transit from stub routers.
	NodeKind = topology.NodeKind
	// TransitStubParams configures the GT-ITM-style topology generator.
	TransitStubParams = topology.TransitStubParams
	// Network is a placed edge cache network (origin + N caches).
	Network = topology.Network
	// PlaceParams configures endpoint placement.
	PlaceParams = topology.PlaceParams
	// CacheIndex identifies an edge cache within a Network.
	CacheIndex = topology.CacheIndex
)

// Topology node kinds.
const (
	KindTransit = topology.KindTransit
	KindStub    = topology.KindStub
)

// NewGraph returns an empty topology graph.
func NewGraph() *Graph { return topology.NewGraph() }

// DefaultTransitStubParams returns the topology configuration used in the
// experiments.
func DefaultTransitStubParams() TransitStubParams { return topology.DefaultTransitStubParams() }

// GenerateTransitStub builds a connected transit-stub topology.
func GenerateTransitStub(params TransitStubParams, src *Rand) (*Graph, error) {
	return topology.GenerateTransitStub(params, src)
}

// NewNetwork places an origin server and edge caches on random stub
// routers.
func NewNetwork(g *Graph, params PlaceParams, src *Rand) (*Network, error) {
	return topology.NewNetwork(g, params, src)
}

// NewNetworkAt places endpoints at explicit attachment routers.
func NewNetworkAt(g *Graph, origin NodeID, caches []NodeID) (*Network, error) {
	return topology.NewNetworkAt(g, origin, caches)
}

// Probing layer.
type (
	// Prober measures RTTs between network endpoints with configurable
	// noise, loss, and retries.
	Prober = probe.Prober
	// ProbeConfig tunes the measurement model.
	ProbeConfig = probe.Config
	// Endpoint addresses the origin server or an edge cache.
	Endpoint = probe.Endpoint
)

// DefaultProbeConfig returns the measurement model used in the
// experiments.
func DefaultProbeConfig() ProbeConfig { return probe.DefaultConfig() }

// NewProber builds a prober over a placed network.
func NewProber(nw *Network, cfg ProbeConfig, src *Rand) (*Prober, error) {
	return probe.NewProber(nw, cfg, src)
}

// OriginEndpoint returns the probe endpoint of the origin server.
func OriginEndpoint() Endpoint { return probe.Origin() }

// CacheEndpoint returns the probe endpoint of edge cache i.
func CacheEndpoint(i CacheIndex) Endpoint { return probe.Cache(i) }

// Group formation (the paper's contribution).
type (
	// SchemeConfig describes a group formation scheme (SL, SDSL, or the
	// Euclidean baseline).
	SchemeConfig = core.Config
	// Coordinator is the GF-Coordinator that forms cooperative groups.
	Coordinator = core.Coordinator
	// Plan is a formed partition of caches into cooperative groups.
	Plan = core.Plan
	// Representation selects feature vectors or GNP coordinates.
	Representation = core.Representation
	// LandmarkParams holds the landmark-set size parameters L and M.
	LandmarkParams = landmark.Params
	// LandmarkSelector chooses the landmark set.
	LandmarkSelector = landmark.Selector
	// FeatureVector is a point in the clustered space.
	FeatureVector = cluster.Vector
	// FeatureMatrix is the flat (one contiguous allocation) feature store
	// the pipeline builds for million-cache inputs.
	FeatureMatrix = cluster.Matrix
	// KMeansPruneMode selects the K-means reassignment strategy
	// (exhaustive, Hamerly bounds pruning, or Elkan bounds pruning). All
	// modes return bit-identical plans; see WithKMeansPrune.
	KMeansPruneMode = cluster.PruneMode
)

// K-means pruning modes. The default (PruneAuto) is Hamerly-style bounds
// pruning, which skips the distance evaluations the exhaustive sweep
// would waste on provably-unchanged points without altering any result.
const (
	PruneAuto    = cluster.PruneAuto
	PruneNone    = cluster.PruneNone
	PruneHamerly = cluster.PruneHamerly
	PruneElkan   = cluster.PruneElkan
)

// Position representations.
const (
	RepresentationFeatureVector = core.FeatureVector
	RepresentationEuclidean     = core.Euclidean
)

// Landmark selectors (paper §3.1 and §5.1 baselines).
type (
	// GreedyLandmarks is the SL scheme's max-min greedy selector.
	GreedyLandmarks = landmark.Greedy
	// RandomLandmarks selects landmarks uniformly at random.
	RandomLandmarks = landmark.Random
	// MinDistLandmarks is the adversarial clumped-landmarks baseline.
	MinDistLandmarks = landmark.MinDist
)

// SL returns the paper's SL scheme with L landmarks and PLSet multiplier M.
func SL(l, m int) SchemeConfig { return core.SL(l, m) }

// SDSL returns the paper's SDSL scheme with server-distance sensitivity
// theta.
func SDSL(l, m int, theta float64) SchemeConfig { return core.SDSL(l, m, theta) }

// EuclideanScheme returns the GNP Euclidean-representation baseline with
// the given embedding dimension.
func EuclideanScheme(l, m, dim int) SchemeConfig { return core.EuclideanScheme(l, m, dim) }

// WithParallelism sets every worker-pool bound of the formation pipeline
// (feature probing, clustering, embedding) to workers and returns the
// updated config. Formation results are identical for every setting — the
// knob trades goroutines for wall-clock time only. workers == 0 restores
// the per-layer defaults.
func WithParallelism(cfg SchemeConfig, workers int) SchemeConfig {
	cfg.ProbeParallelism = workers
	cfg.Cluster.Parallelism = workers
	cfg.GNP.Parallelism = workers
	return cfg
}

// WithKMeansPrune sets the K-means reassignment strategy and returns the
// updated config. Like WithParallelism, the knob never changes the formed
// plan — pruned and exhaustive runs produce bit-identical checksums — it
// only trades distance evaluations for bound bookkeeping.
func WithKMeansPrune(cfg SchemeConfig, mode KMeansPruneMode) SchemeConfig {
	cfg.Cluster.Prune = mode
	return cfg
}

// NewCoordinator builds a GF-Coordinator for the given scheme.
func NewCoordinator(nw *Network, prober *Prober, cfg SchemeConfig, src *Rand) (*Coordinator, error) {
	return core.NewCoordinator(nw, prober, cfg, src)
}

// GNP embedding (Euclidean baseline internals, exposed for reuse).
type (
	// GNPConfig tunes the Euclidean embedding.
	GNPConfig = gnp.Config
)

// DefaultGNPConfig returns the 5-dimensional embedding configuration.
func DefaultGNPConfig() GNPConfig { return gnp.DefaultConfig() }

// Workload generation.
type (
	// Catalog is a synthetic document catalog with Zipf popularity.
	Catalog = workload.Catalog
	// CatalogParams configures catalog synthesis.
	CatalogParams = workload.CatalogParams
	// Document is one item of origin content.
	Document = workload.Document
	// DocID identifies a document.
	DocID = workload.DocID
	// Request is one client request at an edge cache.
	Request = workload.Request
	// Update is one origin-side document update.
	Update = workload.Update
	// TraceParams configures request-log synthesis.
	TraceParams = workload.TraceParams
)

// DefaultCatalogParams returns the catalog used by the experiments.
func DefaultCatalogParams() CatalogParams { return workload.DefaultCatalogParams() }

// DefaultTraceParams returns the trace configuration used by the
// experiments.
func DefaultTraceParams() TraceParams { return workload.DefaultTraceParams() }

// NewCatalog synthesizes a document catalog.
func NewCatalog(params CatalogParams, src *Rand) (*Catalog, error) {
	return workload.NewCatalog(params, src)
}

// GenerateRequests synthesizes the merged per-cache request log.
func GenerateRequests(c *Catalog, numCaches int, params TraceParams, src *Rand) ([]Request, error) {
	return workload.GenerateRequests(c, numCaches, params, src)
}

// GenerateUpdates synthesizes the origin server's update log.
func GenerateUpdates(c *Catalog, durationSec float64, src *Rand) ([]Update, error) {
	return workload.GenerateUpdates(c, durationSec, src)
}

// Simulation.
type (
	// Simulator is the discrete event cooperative-cache simulator.
	Simulator = netsim.Simulator
	// SimConfig tunes the simulator's latency and cache model.
	SimConfig = netsim.Config
	// Report aggregates a simulation run's outcome.
	Report = netsim.Report
)

// DefaultSimConfig returns the latency model used by the experiments. A
// simulation runs as one serial event loop, so its Report (and Checksum)
// depends only on the logs and the config; run several simulators side by
// side to use more cores.
func DefaultSimConfig() SimConfig { return netsim.DefaultConfig() }

// NewSimulator builds a simulator for a group partition.
func NewSimulator(nw *Network, groups [][]CacheIndex, catalog *Catalog, cfg SimConfig) (*Simulator, error) {
	return netsim.New(nw, groups, catalog, cfg)
}

// Metrics.
type (
	// LatencyStats accumulates latency samples.
	LatencyStats = metrics.LatencyStats
)

// Observability layer (see internal/obs): a metrics registry, a bounded
// trace ring, and an HTTP exposition surface. An *Obs plugs into
// SchemeConfig.Obs, SimConfig.Obs, and ProtocolConfig.Obs; enabling it
// never changes a Plan or Report checksum.
type (
	// Obs bundles a metrics registry and a trace sink; nil disables
	// instrumentation everywhere it is accepted.
	Obs = obs.Obs
	// ObsEvent is one structured trace record.
	ObsEvent = obs.Event
	// ObsServer is a live /metrics, /debug/vars, /debug/pprof, /trace
	// endpoint.
	ObsServer = obs.Server
)

// NewObs returns an enabled observability bundle.
func NewObs() *Obs { return obs.New() }

// ServeObs binds addr (host:port, ":0" for ephemeral) and serves o's
// exposition endpoints on it until the returned server is closed.
func ServeObs(addr string, o *Obs) (*ObsServer, error) { return obs.Serve(addr, o) }

// VerifyError is a violated pipeline invariant; its Stage field names the
// check that failed.
type VerifyError = verify.Error

// VerifyPlan checks a formed plan's structural invariants: every cache in
// exactly one group, no empty groups, consistent dimensions, and — for
// unedited K-means plans — centers equal to member means. A nil nw skips
// the network-coverage check. Plans also carry a stable fingerprint via
// Plan.Checksum for determinism audits.
func VerifyPlan(plan *Plan, nw *Network) error { return plan.Verify(nw) }

// VerifyReport checks a simulation report's conservation invariants
// against the offered request and update logs (outcome counts sum to
// recorded requests, counters non-negative and bounded, per-cache and
// per-group aggregates consistent). Reports also carry a stable
// fingerprint via Report.Checksum.
func VerifyReport(rep *Report, requests []Request, updates []Update) error {
	return rep.Verify(requests, updates)
}

// GroupInteractionCost returns the mean pairwise RTT of one group (the
// paper's GICost).
func GroupInteractionCost(nw *Network, members []CacheIndex) float64 {
	return metrics.GroupInteractionCost(nw, members)
}

// AvgGroupInteractionCost returns the paper's clustering-accuracy metric:
// the mean GICost over all non-empty groups.
func AvgGroupInteractionCost(nw *Network, groups [][]CacheIndex) float64 {
	return metrics.AvgGroupInteractionCost(nw, groups)
}
