package core

import (
	"errors"
	"fmt"
	"math"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// Plan is the result of group formation: the partition of caches into K
// cooperative groups, plus the intermediate artifacts (landmarks, feature
// vectors, cluster centers) needed to assign new caches incrementally.
type Plan struct {
	// Scheme names the configuration that produced this plan.
	Scheme string
	// Landmarks is the chosen landmark set (origin first).
	Landmarks []probe.Endpoint
	// Features holds the raw RTT feature vector of each cache.
	Features []cluster.Vector
	// Points holds the clustered representation (equal to Features for the
	// feature-vector representation, GNP coordinates otherwise).
	Points []cluster.Vector
	// LandmarkCoords holds GNP landmark coordinates (Euclidean
	// representation only).
	LandmarkCoords [][]float64
	// ServerDist holds each cache's measured RTT to the origin server.
	ServerDist []float64
	// Assignments maps cache index -> group ID in [0,K).
	Assignments []int
	// Centers are the final cluster centers in the clustered space.
	Centers []cluster.Vector
	// Algorithm records which clustering algorithm produced the plan
	// (K-means centers are member means; K-medoids centers are real
	// points). Zero reads as K-means.
	Algorithm Algorithm
	// Theta is the SDSL server-distance sensitivity the plan was seeded
	// with (zero for SL), so Reform can seed the same way. Checksum does
	// not hash it: Scheme already names θ.
	Theta float64
	// Iterations and Converged report the K-means outcome.
	Iterations int
	Converged  bool
}

// NumGroups returns K.
func (p *Plan) NumGroups() int { return len(p.Centers) }

// NumCaches returns the number of caches covered by the plan.
func (p *Plan) NumCaches() int { return len(p.Assignments) }

// GroupOf returns the group ID of cache i.
func (p *Plan) GroupOf(i topology.CacheIndex) (int, error) {
	if int(i) < 0 || int(i) >= len(p.Assignments) {
		return 0, fmt.Errorf("core: cache index %d out of range [0,%d)", i, len(p.Assignments))
	}
	return p.Assignments[int(i)], nil
}

// Group returns the members of group g.
func (p *Plan) Group(g int) ([]topology.CacheIndex, error) {
	if g < 0 || g >= len(p.Centers) {
		return nil, fmt.Errorf("core: group %d out of range [0,%d)", g, len(p.Centers))
	}
	var out []topology.CacheIndex
	for i, a := range p.Assignments {
		if a == g {
			out = append(out, topology.CacheIndex(i))
		}
	}
	return out, nil
}

// Groups returns all groups as slices of cache indices, indexed by group
// ID. Empty groups yield nil slices.
func (p *Plan) Groups() [][]topology.CacheIndex {
	out := make([][]topology.CacheIndex, len(p.Centers))
	for i, a := range p.Assignments {
		out[a] = append(out[a], topology.CacheIndex(i))
	}
	return out
}

// Sizes returns the member count of each group.
func (p *Plan) Sizes() []int {
	sizes := make([]int, len(p.Centers))
	for _, a := range p.Assignments {
		sizes[a]++
	}
	return sizes
}

// MeanGroupSize returns the average number of caches per group.
func (p *Plan) MeanGroupSize() float64 {
	if len(p.Centers) == 0 {
		return 0
	}
	return float64(len(p.Assignments)) / float64(len(p.Centers))
}

// AssignPoint returns the group whose center is nearest to the given point
// in the plan's clustered space. It supports incremental group membership:
// probe a new cache's feature vector (and embed it, for Euclidean plans),
// then assign it without re-clustering the network.
func (p *Plan) AssignPoint(point cluster.Vector) (int, error) {
	if len(p.Centers) == 0 {
		return 0, fmt.Errorf("core: plan has no centers")
	}
	if len(point) != len(p.Centers[0]) {
		return 0, fmt.Errorf("core: point dimension %d, want %d", len(point), len(p.Centers[0]))
	}
	best := 0
	bestD := cluster.L2(point, p.Centers[0])
	for c := 1; c < len(p.Centers); c++ {
		if d := cluster.L2(point, p.Centers[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, nil
}

// cloneShallow returns a copy of p with fresh top-level slice headers over
// the shared element vectors. Maintenance replaces elements wholesale
// (never mutating a vector in place), so readers of the original plan see
// a consistent snapshot while the clone is edited and swapped in.
func (p *Plan) cloneShallow() *Plan {
	q := *p
	q.Assignments = append([]int(nil), p.Assignments...)
	q.Points = append([]cluster.Vector(nil), p.Points...)
	q.Features = append([]cluster.Vector(nil), p.Features...)
	q.Centers = append([]cluster.Vector(nil), p.Centers...)
	q.ServerDist = append([]float64(nil), p.ServerDist...)
	return &q
}

// OriginColumn returns the index of the origin landmark among the plan's
// point coordinates: the column that holds each cache's server distance.
// It fails when the points are not landmark RTT vectors (an embedded GNP
// or Vivaldi representation, or a landmark set whose size differs from
// the point dimension) or when the landmarks omit the origin, since the
// plan then cannot read server distances off fresh points.
func (p *Plan) OriginColumn() (int, error) {
	dim := 0
	if len(p.Points) > 0 {
		dim = len(p.Points[0])
	}
	return p.originColumn(dim)
}

// originColumn is OriginColumn for dim-dimensional points.
func (p *Plan) originColumn(dim int) (int, error) {
	if len(p.LandmarkCoords) > 0 {
		return 0, errors.New("core: plan points are embedded coordinates, not landmark RTTs")
	}
	if len(p.Landmarks) != dim {
		return 0, fmt.Errorf("core: plan has %d landmarks for %d-dimensional points", len(p.Landmarks), dim)
	}
	col := originIndex(p.Landmarks)
	if col < 0 {
		return 0, errors.New("core: plan landmarks do not include the origin")
	}
	return col, nil
}

// Reform forms k groups over points, one landmark RTT vector per cache,
// through the same clustering step as Coordinator.FormGroups: with the
// plan's scheme, landmarks, θ and algorithm, and with each cache's server
// distance read from the origin landmark's column of points. p serves only
// as the template for those fields, so a plan with no points of its own
// can form its first partition. The returned plan's Features and Points
// are row views of points; p is left unchanged.
func (p *Plan) Reform(points cluster.Matrix, k int, src *simrand.Source) (*Plan, error) {
	col, err := p.originColumn(points.Dim())
	if err != nil {
		return nil, err
	}
	serverDist := make([]float64, points.Rows())
	for i := range serverDist {
		serverDist[i] = points.Row(i)[col]
	}
	base := Plan{
		Scheme:     p.Scheme,
		Landmarks:  p.Landmarks,
		ServerDist: serverDist,
		Algorithm:  p.Algorithm,
		Theta:      p.Theta,
	}
	return formPlan(base, k, points, points, cluster.DefaultOptions(), src)
}

// Verify checks the plan's structural invariants: a well-formed partition
// (every cache in exactly one group, no empty groups), one feature vector
// and one server distance per cache (or none), consistent dimensions
// across points/features/centers, and — for every plan except K-medoids
// ones — that every center is exactly the mean of its members. A nil nw
// skips the network-coverage check. It returns the first violated
// invariant as a *verify.Error.
func (p *Plan) Verify(nw *topology.Network) error {
	if err := partition(p.Assignments, len(p.Centers)); err != nil {
		return err
	}
	if nw != nil && len(p.Assignments) != nw.NumCaches() {
		return verify.Errorf("plan", "plan covers %d caches, network has %d", len(p.Assignments), nw.NumCaches())
	}
	if len(p.Points) != len(p.Assignments) {
		return verify.Errorf("plan", "%d points for %d assignments", len(p.Points), len(p.Assignments))
	}
	if len(p.Features) != 0 && len(p.Features) != len(p.Assignments) {
		return verify.Errorf("plan", "%d feature vectors for %d assignments", len(p.Features), len(p.Assignments))
	}
	if len(p.ServerDist) != 0 && len(p.ServerDist) != len(p.Assignments) {
		return verify.Errorf("plan", "%d server distances for %d assignments", len(p.ServerDist), len(p.Assignments))
	}
	if err := dimensions(p.Points, p.Centers); err != nil {
		return err
	}
	if err := uniformDims("features", p.Features); err != nil {
		return err
	}
	if p.Algorithm != AlgoKMedoids {
		return centersAreMeans(p.Points, p.Assignments, p.Centers)
	}
	return nil
}

// partition checks that assignments form a well-formed k-way partition:
// every element lies in [0,k) and every group has at least one member
// (empty-cluster repair guarantees non-degenerate groups).
func partition(assignments []int, k int) error {
	if k < 1 {
		return verify.Errorf("partition", "k must be >= 1, got %d", k)
	}
	if len(assignments) < k {
		return verify.Errorf("partition", "%d caches cannot fill %d non-empty groups", len(assignments), k)
	}
	sizes := make([]int, k)
	for i, a := range assignments {
		if a < 0 || a >= k {
			return verify.Errorf("partition", "cache %d assigned to group %d, out of range [0,%d)", i, a, k)
		}
		sizes[a]++
	}
	for g, n := range sizes {
		if n == 0 {
			return verify.Errorf("partition", "group %d is empty after repair", g)
		}
	}
	return nil
}

// dimensions checks that all points and centers share one non-zero
// dimension and hold only finite values, so every distance computed during
// clustering and incremental assignment was well-defined.
func dimensions(points, centers []cluster.Vector) error {
	if err := uniformDims("points", points); err != nil {
		return err
	}
	if err := uniformDims("centers", centers); err != nil {
		return err
	}
	if len(points) > 0 && len(centers) > 0 && len(points[0]) != len(centers[0]) {
		return verify.Errorf("dimensions", "points have dimension %d, centers %d", len(points[0]), len(centers[0]))
	}
	return nil
}

func uniformDims(what string, vs []cluster.Vector) error {
	if len(vs) == 0 {
		return nil
	}
	dim := len(vs[0])
	if dim == 0 {
		return verify.Errorf("dimensions", "%s are zero-dimensional", what)
	}
	for i, v := range vs {
		if len(v) != dim {
			return verify.Errorf("dimensions", "%s[%d] has dimension %d, want %d", what, i, len(v), dim)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return verify.Errorf("dimensions", "%s[%d][%d] is %v", what, i, j, x)
			}
		}
	}
	return nil
}

// meanTolerance is the relative tolerance for the centers-are-means check;
// recomputing a mean accumulates per-coordinate rounding of order n·eps.
const meanTolerance = 1e-9

// centersAreMeans checks that each center is the mean of its assigned
// points, within floating-point tolerance. This is the invariant the
// K-means iteration must restore after empty-cluster repair: a stale
// donor-cluster center silently skews WithinClusterSS and every
// center-distance decision downstream (maintenance reassignment and
// incremental joins). The caller has checked the partition and the
// dimensions.
func centersAreMeans(points []cluster.Vector, assignments []int, centers []cluster.Vector) error {
	dim := len(centers[0])
	sums := make([][]float64, len(centers))
	counts := make([]int, len(centers))
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for i, a := range assignments {
		counts[a]++
		for j, x := range points[i] {
			sums[a][j] += x
		}
	}
	for c := range centers {
		for j := 0; j < dim; j++ {
			mean := sums[c][j] / float64(counts[c])
			got := centers[c][j]
			scale := math.Max(math.Abs(mean), math.Abs(got))
			if diff := math.Abs(got - mean); diff > meanTolerance*math.Max(scale, 1) {
				return verify.Errorf("centers",
					"center %d component %d is %v, want member mean %v (diff %v): centers are stale relative to assignments",
					c, j, got, mean, diff)
			}
		}
	}
	return nil
}

// Checksum returns a stable FNV-1a digest of the plan's outcome: the
// scheme name, the group count, the assignments, and the measured/derived
// coordinates. Two runs of the same (seed, config) pair must produce equal
// checksums regardless of probing concurrency; different seeds must not.
func (p *Plan) Checksum() uint64 {
	d := verify.NewDigest()
	d.String(p.Scheme)
	d.Int(len(p.Centers))
	d.Ints(p.Assignments)
	d.Floats(p.ServerDist)
	for _, f := range p.Features {
		d.Floats(f)
	}
	for _, pt := range p.Points {
		d.Floats(pt)
	}
	for _, c := range p.Centers {
		d.Floats(c)
	}
	return d.Sum64()
}
