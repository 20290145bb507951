package ecg

import (
	"io"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/netsim"
	"edgecachegroups/internal/serve"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// Extensions beyond the paper's core pipeline: an alternative flat
// topology model, topology serialization, an alternative clustering
// algorithm, clustering quality diagnostics, flash-crowd workloads, and
// per-group simulation statistics.

// Waxman topology (flat random Internet model).
type (
	// WaxmanParams configures the flat Waxman topology generator.
	WaxmanParams = topology.WaxmanParams
)

// DefaultWaxmanParams returns a 600-router Waxman configuration comparable
// to the default transit-stub topology.
func DefaultWaxmanParams() WaxmanParams { return topology.DefaultWaxmanParams() }

// GenerateWaxman builds a connected flat Waxman topology.
func GenerateWaxman(params WaxmanParams, src *Rand) (*Graph, error) {
	return topology.GenerateWaxman(params, src)
}

// WriteGraphJSON serializes a topology graph to w.
func WriteGraphJSON(w io.Writer, g *Graph) error { return g.WriteJSON(w) }

// ReadGraphJSON deserializes a topology graph written by WriteGraphJSON.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return topology.ReadGraphJSON(r) }

// Clustering algorithm selection.
type (
	// ClusterAlgorithm selects K-means or K-medoids for the clustering
	// step.
	ClusterAlgorithm = core.Algorithm
)

// Clustering algorithms.
const (
	AlgoKMeans   = core.AlgoKMeans
	AlgoKMedoids = core.AlgoKMedoids
)

// Silhouette returns the mean silhouette coefficient of a partition in the
// clustered feature space — a clustering-quality diagnostic in [-1, 1].
// Its O(N²) distance loop fans out over at most workers goroutines (0 or
// 1 means serial); the coefficient is bit-identical for every worker
// count.
func Silhouette(points []FeatureVector, assignments []int, k, workers int) (float64, error) {
	m, err := cluster.MatrixFromVectors(points)
	if err != nil {
		return 0, err
	}
	return cluster.Silhouette(m, assignments, k, workers)
}

// SuggestK runs the clustering for k = 1..kMax and returns the elbow of
// the within-cluster-SS curve plus the curve itself — a starting point for
// choosing the paper's "pre-specified parameter" K. The kMax independent
// runs fan out over at most workers goroutines (0 or 1 means serial), each
// drawing from its own deterministic substream: the suggestion and curve
// are bit-identical for every worker count.
func SuggestK(points []FeatureVector, kMax, workers int, src *Rand) (int, []float64, error) {
	m, err := cluster.MatrixFromVectors(points)
	if err != nil {
		return 0, nil, err
	}
	opts := cluster.DefaultOptions()
	opts.Parallelism = workers
	return cluster.SuggestK(m, kMax, cluster.UniformSeeder{}, opts, src)
}

// Flash-crowd workloads.
type (
	// FlashCrowdParams describes a flash-crowd episode.
	FlashCrowdParams = workload.FlashCrowdParams
	// FlashCrowd is a materialized flash-crowd episode.
	FlashCrowd = workload.FlashCrowd
)

// NewFlashCrowd draws the hot document set for a flash-crowd episode.
func NewFlashCrowd(c *Catalog, params FlashCrowdParams, src *Rand) (*FlashCrowd, error) {
	return workload.NewFlashCrowd(c, params, src)
}

// Per-group simulation statistics.
type (
	// GroupStat aggregates per-cooperative-group simulation counters.
	GroupStat = netsim.GroupStat
)

// Cache replacement policies.
type (
	// CachePolicy selects the per-cache replacement policy.
	CachePolicy = cache.Policy
)

// Replacement policies.
const (
	PolicyUtility = cache.PolicyUtility
	PolicyLRU     = cache.PolicyLRU
)

// VivaldiScheme returns the SL pipeline with Vivaldi spring-relaxation
// coordinates instead of raw feature vectors (paper reference [3]).
func VivaldiScheme(l, m, dim int) SchemeConfig { return core.VivaldiScheme(l, m, dim) }

// RepresentationVivaldi selects Vivaldi coordinates for clustering.
const RepresentationVivaldi = core.Vivaldi

// OracleLandmarks is an idealized landmark selector with free global
// knowledge of true RTTs — an accuracy ceiling for ablations, not a
// deployable strategy.
type OracleLandmarks = landmark.Oracle

// Group-size balancing.
type (
	// BalanceOptions constrains group sizes after clustering.
	BalanceOptions = core.BalanceOptions
)

// Trace statistics.
type (
	// TraceStats summarizes a request log.
	TraceStats = workload.TraceStats
)

// AnalyzeRequests computes summary statistics for a request log.
func AnalyzeRequests(reqs []Request) (*TraceStats, error) {
	return workload.AnalyzeRequests(reqs)
}

// Router-level paths.
type (
	// PathTree is a single-source shortest-path tree with extractable
	// router-level paths.
	PathTree = topology.ShortestPathTree
)

// Group maintenance.
type (
	// Maintainer keeps a Plan aligned with drifting network conditions.
	Maintainer = core.Maintainer
	// MaintainerConfig tunes maintenance rounds.
	MaintainerConfig = core.MaintainerConfig
	// MaintainerEvent describes one maintenance round's outcome.
	MaintainerEvent = core.MaintainerEvent
	// FeatureSource measures a cache's current feature vector.
	FeatureSource = core.FeatureSource
)

// DefaultMaintainerConfig returns sensible maintenance defaults.
func DefaultMaintainerConfig() MaintainerConfig { return core.DefaultMaintainerConfig() }

// NewMaintainer builds a group maintainer over plan.
func NewMaintainer(plan *Plan, source FeatureSource, recluster func() (*Plan, error), cfg MaintainerConfig, src *Rand) (*Maintainer, error) {
	return core.NewMaintainer(plan, source, recluster, cfg, src)
}

// Serving (the groupformd daemon layer).
type (
	// ServeEngine is the long-running group-formation service: ingests
	// per-cache stats, maintains the plan incrementally, and serves
	// queries from immutable copy-on-write plan epochs.
	ServeEngine = serve.Engine
	// ServeConfig configures a ServeEngine.
	ServeConfig = serve.Config
	// PlanEpoch is one immutable published plan generation.
	PlanEpoch = serve.Epoch
	// CacheStat is one per-cache ingest record (RTT vector + request count).
	CacheStat = serve.CacheStat
	// ServeHealth is the daemon's /healthz body (ok / degraded / down).
	ServeHealth = serve.Health
	// ServeServer is a live daemon endpoint (engine loop + HTTP listener).
	ServeServer = serve.Server
)

// NewServeEngine builds the serving engine and publishes the boot plan.
func NewServeEngine(cfg ServeConfig) (*ServeEngine, error) { return serve.NewEngine(cfg) }

// ServeGroups binds addr, starts the engine's maintenance loop, and serves
// the daemon API (plus the obs endpoints when o is non-nil).
func ServeGroups(addr string, e *ServeEngine, o *Obs) (*ServeServer, error) {
	return serve.Serve(addr, e, o)
}

// SavePlanSnapshot persists an epoch crash-safely (tmp + fsync + rename).
func SavePlanSnapshot(path string, ep *PlanEpoch) error { return serve.SaveSnapshot(path, ep) }

// LoadPlanSnapshot reloads a persisted epoch, verifying plan invariants
// and the recorded checksum.
func LoadPlanSnapshot(path string) (*PlanEpoch, error) { return serve.LoadSnapshot(path) }

// Request tracing.
type (
	// RequestTrace describes one served request for SimConfig.TraceFn.
	RequestTrace = netsim.RequestTrace
	// RequestOutcome classifies a request's routing.
	RequestOutcome = netsim.Outcome
)

// Request outcomes.
const (
	OutcomeLocal    = netsim.OutcomeLocal
	OutcomeGroup    = netsim.OutcomeGroup
	OutcomeOrigin   = netsim.OutcomeOrigin
	OutcomeFailover = netsim.OutcomeFailover
)
