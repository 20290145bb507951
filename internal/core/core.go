// Package core implements the paper's contribution: the formation of
// cooperative edge cache groups.
//
// A Coordinator plays the role of the paper's GF-Coordinator. It executes
// the three steps of the SL scheme (§3): choosing a high-quality landmark
// set, determining relative node positions by probing the landmarks, and
// creating groups by K-means clustering of the resulting feature vectors.
// The SDSL scheme (§4) reuses the same pipeline but seeds the K-means
// initial centers with probability inversely proportional to each cache's
// measured distance to the origin server, raised to the configurable
// sensitivity exponent θ.
//
// The Euclidean representation (§5.2 baseline) replaces raw feature
// vectors with GNP coordinates computed from the same landmark
// measurements.
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/gnp"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/par"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/vivaldi"
)

// Representation selects how node positions are encoded for clustering.
type Representation int

// Position representations.
const (
	// FeatureVector is the paper's representation: the vector of measured
	// RTTs from a cache to each landmark.
	FeatureVector Representation = iota + 1
	// Euclidean maps nodes into a D-dimensional space with GNP before
	// clustering.
	Euclidean
	// Vivaldi maps nodes into a D-dimensional space with the Vivaldi
	// spring-relaxation coordinate system (the paper's reference [3])
	// before clustering.
	Vivaldi
)

// String implements fmt.Stringer.
func (r Representation) String() string {
	switch r {
	case FeatureVector:
		return "feature-vector"
	case Euclidean:
		return "euclidean"
	case Vivaldi:
		return "vivaldi"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// Algorithm selects the clustering algorithm used in step 3 of the
// pipeline. The paper uses K-means and notes that "any standard clustering
// algorithm may be similarly modified"; K-medoids is provided as the
// alternative (its centers are real caches, which gives each group a
// natural coordinator node).
type Algorithm int

// Clustering algorithms.
const (
	AlgoKMeans Algorithm = iota + 1
	AlgoKMedoids
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoKMeans:
		return "k-means"
	case AlgoKMedoids:
		return "k-medoids"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes a group formation scheme.
type Config struct {
	// Landmarks holds the landmark-set size parameters (L and M).
	Landmarks landmark.Params
	// Selector picks the landmark set; nil means the SL greedy selector.
	Selector landmark.Selector
	// Cluster tunes the K-means iteration.
	Cluster cluster.Options
	// Algorithm selects the clustering algorithm; zero means K-means.
	Algorithm Algorithm
	// Theta is the SDSL server-distance sensitivity. Zero yields the plain
	// SL scheme (uniform seeding).
	Theta float64
	// Representation selects feature vectors (default) or GNP coordinates.
	Representation Representation
	// GNP configures the Euclidean embedding when Representation is
	// Euclidean.
	GNP gnp.Config
	// Vivaldi configures the spring-relaxation embedding when
	// Representation is Vivaldi.
	Vivaldi vivaldi.Config
	// ProbeParallelism bounds every per-cache fan-out of formation:
	// feature probing and the GNP or Vivaldi host embedding. 0 means a
	// sensible default.
	ProbeParallelism int
	// Verify enables the invariant-checking layer: FormGroups audits the
	// finished plan (partition well-formedness, centers-are-means,
	// dimension consistency) and fails loudly instead of returning a
	// silently inconsistent partition.
	Verify bool
	// Obs is the optional observability sink: FormGroups brackets each
	// pipeline stage with a span, which emits the trace pair and records
	// the stage_<name>_ms histogram. Nil disables instrumentation;
	// enabling it never changes the formed plan (see internal/obs).
	Obs *obs.Obs
}

// SL returns the paper's SL scheme configuration: greedy landmark
// selection, feature vectors, uniform K-means seeding.
func SL(l, m int) Config {
	return Config{
		Landmarks:      landmark.Params{L: l, M: m},
		Selector:       landmark.Greedy{},
		Cluster:        cluster.DefaultOptions(),
		Representation: FeatureVector,
	}
}

// SDSL returns the paper's SDSL scheme configuration with sensitivity
// theta.
func SDSL(l, m int, theta float64) Config {
	cfg := SL(l, m)
	cfg.Theta = theta
	return cfg
}

// EuclideanScheme returns the §5.2 baseline: the SL pipeline with GNP
// coordinates (dim dimensions) instead of raw feature vectors.
func EuclideanScheme(l, m, dim int) Config {
	cfg := SL(l, m)
	cfg.Representation = Euclidean
	cfg.GNP = gnp.DefaultConfig()
	cfg.GNP.Dim = dim
	return cfg
}

// VivaldiScheme returns the SL pipeline with Vivaldi spring-relaxation
// coordinates (dim dimensions) instead of raw feature vectors.
func VivaldiScheme(l, m, dim int) Config {
	cfg := SL(l, m)
	cfg.Representation = Vivaldi
	cfg.Vivaldi = vivaldi.DefaultConfig()
	cfg.Vivaldi.Dim = dim
	return cfg
}

// Name returns a short human-readable scheme identifier.
func (c Config) Name() string {
	sel := "greedy"
	if c.Selector != nil {
		sel = c.Selector.Name()
	}
	name := "SL"
	if c.Theta > 0 {
		name = "SDSL(theta=" + strconv.FormatFloat(c.Theta, 'g', -1, 64) + ")"
	}
	if c.Representation == Euclidean {
		name += "+GNP"
	}
	if c.Representation == Vivaldi {
		name += "+Vivaldi"
	}
	if sel != "greedy" {
		name += "[" + sel + "-landmarks]"
	}
	if c.Algorithm == AlgoKMedoids {
		name += "+kmedoids"
	}
	return name
}

// Validate reports whether the configuration is usable on a network of
// numCaches caches.
func (c Config) Validate(numCaches int) error {
	if err := c.Landmarks.Validate(numCaches); err != nil {
		return err
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Theta < 0 || math.IsNaN(c.Theta) {
		return fmt.Errorf("core: Theta must be >= 0, got %v", c.Theta)
	}
	switch c.Representation {
	case FeatureVector:
	case Euclidean:
		if err := c.GNP.Validate(); err != nil {
			return err
		}
	case Vivaldi:
		if err := c.Vivaldi.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown representation %v", c.Representation)
	}
	if c.ProbeParallelism < 0 {
		return fmt.Errorf("core: ProbeParallelism must be >= 0, got %d", c.ProbeParallelism)
	}
	switch c.Algorithm {
	case 0, AlgoKMeans, AlgoKMedoids:
	default:
		return fmt.Errorf("core: unknown clustering algorithm %v", c.Algorithm)
	}
	return nil
}

// Coordinator is the GF-Coordinator: it owns the network, the prober, and
// a scheme configuration, and forms cooperative groups on demand.
type Coordinator struct {
	nw     *topology.Network
	prober *probe.Prober
	cfg    Config
	src    *simrand.Source
}

// NewCoordinator builds a Coordinator. The source drives landmark
// sampling, K-means seeding, and GNP initialization.
func NewCoordinator(nw *topology.Network, prober *probe.Prober, cfg Config, src *simrand.Source) (*Coordinator, error) {
	if nw == nil {
		return nil, errors.New("core: nil network")
	}
	if prober == nil {
		return nil, errors.New("core: nil prober")
	}
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	if cfg.Selector == nil {
		cfg.Selector = landmark.Greedy{}
	}
	if err := cfg.Validate(nw.NumCaches()); err != nil {
		return nil, err
	}
	return &Coordinator{nw: nw, prober: prober, cfg: cfg, src: src}, nil
}

// Config returns the coordinator's scheme configuration.
func (gf *Coordinator) Config() Config { return gf.cfg }

// Network returns the underlying edge cache network.
func (gf *Coordinator) Network() *topology.Network { return gf.nw }

// FormGroups partitions the network's caches into k cooperative groups.
// With Config.Verify set, the finished plan is audited against the
// invariant-checking layer before being returned.
func (gf *Coordinator) FormGroups(k int) (*Plan, error) {
	n := gf.nw.NumCaches()
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k=%d out of range [1,%d]", k, n)
	}

	// Step 1: choose the landmark set.
	spanSelect := gf.cfg.Obs.StartSpan("landmark-select")
	lms, err := gf.cfg.Selector.Select(gf.prober, n, gf.cfg.Landmarks, gf.src.Split("landmarks"))
	spanSelect()
	if err != nil {
		return nil, fmt.Errorf("select landmarks: %w", err)
	}

	// Step 2: every cache probes the landmarks to build its feature vector.
	spanProbe := gf.cfg.Obs.StartSpan("probe-features")
	features, serverDist, err := gf.measureFeatures(lms)
	spanProbe()
	if err != nil {
		return nil, fmt.Errorf("measure feature vectors: %w", err)
	}

	// Optional representation change: GNP or Vivaldi coordinates.
	points := features
	var lmCoords [][]float64
	if gf.cfg.Representation != FeatureVector {
		spanEmbed := gf.cfg.Obs.StartSpan("embed")
		points, lmCoords, err = gf.embed(lms, features)
		spanEmbed()
		if err != nil {
			return nil, fmt.Errorf("%v embedding: %w", gf.cfg.Representation, err)
		}
	}

	// Step 3: cluster. SDSL biases the initial centers toward the origin.
	// The clustering consumes the flat feature matrix directly — at
	// million-cache scale the feature set is one contiguous allocation
	// end to end, from probe output through the K-means kernel.
	base := Plan{
		Scheme:         gf.cfg.Name(),
		Landmarks:      lms,
		LandmarkCoords: lmCoords,
		ServerDist:     serverDist,
		Algorithm:      gf.cfg.Algorithm,
		Theta:          gf.cfg.Theta,
	}
	spanCluster := gf.cfg.Obs.StartSpan("cluster")
	plan, err := formPlan(base, k, features, points, gf.cfg.Cluster, gf.src.Split("kmeans"))
	spanCluster()
	if err != nil {
		return nil, fmt.Errorf("cluster caches: %w", err)
	}

	if gf.cfg.Verify {
		spanVerify := gf.cfg.Obs.StartSpan("verify")
		err := plan.Verify(gf.nw)
		spanVerify()
		if err != nil {
			return nil, fmt.Errorf("core: plan failed verification: %w", err)
		}
	}
	return plan, nil
}

// formPlan is the clustering step of formation, shared by
// Coordinator.FormGroups and Plan.Reform, and the one place that picks
// the seeder and the algorithm. It seeds the initial centers (uniformly
// for SL; SDSL weights cache i by 1/d(i, origin)^θ), clusters points
// into k groups with base.Algorithm (zero means K-means), and completes
// base into the plan. base carries what clustering does not compute:
// scheme name, landmarks, landmark coordinates, server distances, θ and
// algorithm. features and points back the plan's Features and Points;
// they are one matrix unless the representation embeds.
func formPlan(base Plan, k int, features, points cluster.Matrix, opts cluster.Options, src *simrand.Source) (*Plan, error) {
	clusterFn := cluster.KMeansMatrix
	switch base.Algorithm {
	case 0:
		base.Algorithm = AlgoKMeans
	case AlgoKMeans:
	case AlgoKMedoids:
		clusterFn = cluster.KMedoids
	default:
		return nil, fmt.Errorf("core: unknown clustering algorithm %v", base.Algorithm)
	}
	res, err := clusterFn(points, k, cluster.SDSLSeeder(base.ServerDist, base.Theta), opts, src)
	if err != nil {
		return nil, err
	}
	// The plan's []Vector fields are row views of the flat matrices: one
	// header-slice allocation each, no data copies.
	base.Features = features.RowViews()
	base.Points = base.Features
	if !points.IsZero() && &points.Data()[0] != &features.Data()[0] {
		base.Points = points.RowViews()
	}
	base.Assignments, base.Centers = res.Assignments, res.Centers
	base.Iterations, base.Converged = res.Iterations, res.Converged
	return &base, nil
}

// originIndex returns the position of the origin among lms, or -1.
func originIndex(lms []probe.Endpoint) int {
	for i, lm := range lms {
		if lm.IsOrigin() {
			return i
		}
	}
	return -1
}

// measureFeatures probes all landmarks from every cache concurrently.
// It returns the flat per-cache feature matrix and the measured server
// distances (the component of the feature vector that corresponds to the
// origin landmark).
func (gf *Coordinator) measureFeatures(lms []probe.Endpoint) (cluster.Matrix, []float64, error) {
	return MeasureFeatureMatrix(gf.prober, gf.nw.NumCaches(), lms, gf.cfg.ProbeParallelism)
}

// MeasureFeatureMatrix probes every cache's RTT to each landmark, filling
// one flat n×len(lms) feature matrix: building features for n caches
// costs O(workers) allocations total (the matrix backing, fixed
// bookkeeping, and one probe.Measurer per worker), not one vector
// allocation per cache or one RNG allocation per probe. It also returns
// the per-cache server distances (the origin landmark's column). Exported
// so the hot-path allocation guards can exercise the exact pipeline path.
func MeasureFeatureMatrix(p *probe.Prober, n int, lms []probe.Endpoint, parallelism int) (cluster.Matrix, []float64, error) {
	features := cluster.NewMatrix(n, len(lms))
	serverDist := make([]float64, n)
	errs := make([]error, n)

	originIdx := originIndex(lms)

	// One reusable measurement context per worker: each row is probed
	// serially by its worker (the per-cache fan-out already saturates the
	// pool), with zero per-probe allocations. Per-pair streams make the
	// values independent of which worker measures which row.
	meas := make([]*probe.Measurer, par.Workers(n, parallelism))
	for w := range meas {
		meas[w] = p.NewMeasurer()
	}
	par.ForEachWorker(n, parallelism, func(worker, i int) {
		self := probe.Cache(topology.CacheIndex(i))
		row := features.Row(i)
		if err := meas[worker].MeasureToInto(self, lms, row); err != nil {
			errs[i] = err
			return
		}
		if originIdx >= 0 {
			serverDist[i] = row[originIdx]
		}
	})

	for i, err := range errs {
		if err != nil {
			return cluster.Matrix{}, nil, fmt.Errorf("cache %d: %w", i, err)
		}
	}
	if originIdx < 0 {
		// Defensive: every selector includes the origin, but if a custom one
		// does not, measure server distances directly.
		for i := 0; i < n; i++ {
			d, err := meas[0].Measure(probe.Cache(topology.CacheIndex(i)), probe.Origin())
			if err != nil {
				return cluster.Matrix{}, nil, fmt.Errorf("measure server distance for cache %d: %w", i, err)
			}
			serverDist[i] = d
		}
	}
	return features, serverDist, nil
}

// embed converts landmark feature measurements into the configured
// representation's coordinates in two phases: the landmarks embed from
// their measured pairwise matrix, then every cache embeds against the
// fixed landmark coordinates, fanned out over ProbeParallelism workers
// into one flat coordinate matrix. Cache i draws only from its own split
// stream, so the coordinates are identical for every worker count.
func (gf *Coordinator) embed(lms []probe.Endpoint, features cluster.Matrix) (cluster.Matrix, [][]float64, error) {
	lmMatrix, err := gf.prober.MeasureMatrix(lms)
	if err != nil {
		return cluster.Matrix{}, nil, fmt.Errorf("probe landmark matrix: %w", err)
	}
	var (
		lmCoords  [][]float64
		embedHost func(i int) ([]float64, error)
	)
	switch gf.cfg.Representation {
	case Euclidean:
		lmCoords, err = gnp.EmbedLandmarks(lmMatrix, gf.cfg.GNP, gf.src.Split("gnp/landmarks"))
		hosts := gf.src.Split("gnp/hosts")
		embedHost = func(i int) ([]float64, error) {
			return gnp.EmbedHost(lmCoords, features.Row(i), gf.cfg.GNP, hosts.SplitN("host", i))
		}
	case Vivaldi:
		lmCoords, err = vivaldi.EmbedLandmarks(lmMatrix, gf.cfg.Vivaldi, gf.src.Split("vivaldi/landmarks"))
		embedHost = func(i int) ([]float64, error) {
			return vivaldi.EmbedHost(lmCoords, features.Row(i), gf.cfg.Vivaldi, gf.src.SplitN("vivaldi/host", i))
		}
	}
	if err != nil {
		return cluster.Matrix{}, nil, fmt.Errorf("embed landmarks: %w", err)
	}
	n := features.Rows()
	points := cluster.NewMatrix(n, len(lmCoords[0]))
	errs := make([]error, n)
	par.ForEach(n, gf.cfg.ProbeParallelism, func(i int) {
		coords, err := embedHost(i)
		if err != nil {
			errs[i] = err
			return
		}
		copy(points.Row(i), coords)
	})
	for i, err := range errs {
		if err != nil {
			return cluster.Matrix{}, nil, fmt.Errorf("embed cache %d: %w", i, err)
		}
	}
	return points, lmCoords, nil
}
