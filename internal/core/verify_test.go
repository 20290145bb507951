package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// wantStage fails t unless err is a *verify.Error of the given stage.
func wantStage(t *testing.T, err error, stage string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("error %v is not a *verify.Error", err)
	}
	if ve.Stage != stage {
		t.Fatalf("error %v has stage %q, want %q", err, ve.Stage, stage)
	}
}

func TestPartition(t *testing.T) {
	if err := partition([]int{0, 1, 2, 0}, 3); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	tests := []struct {
		name   string
		assign []int
		k      int
	}{
		{"empty group", []int{0, 0, 2}, 3},
		{"out of range high", []int{0, 3}, 2},
		{"out of range negative", []int{0, -1}, 2},
		{"k too large", []int{0}, 2},
		{"k zero", []int{0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantStage(t, partition(tt.assign, tt.k), "partition")
		})
	}
}

func TestCentersAreMeans(t *testing.T) {
	points := []cluster.Vector{{0, 0}, {2, 0}, {10, 10}}
	assign := []int{0, 0, 1}
	good := []cluster.Vector{{1, 0}, {10, 10}}
	if err := centersAreMeans(points, assign, good); err != nil {
		t.Fatalf("exact means rejected: %v", err)
	}

	// The pre-fix K-means bug shape: an empty-cluster repair stole point 2
	// from cluster 1 into a new cluster, but cluster 1's center still
	// includes point 2's contribution (stale donor mean).
	stale := []cluster.Vector{{4, 10.0 / 3}, {10, 10}}
	err := centersAreMeans(points, assign, stale)
	wantStage(t, err, "centers")
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected message: %v", err)
	}

	// Tiny float noise within tolerance is accepted.
	noisy := []cluster.Vector{{1 + 1e-13, 0}, {10, 10 - 1e-12}}
	if err := centersAreMeans(points, assign, noisy); err != nil {
		t.Fatalf("rounding-level noise rejected: %v", err)
	}
}

// lineNetwork places n caches on a line o - c0 - c1 - ... of 10 ms links.
func lineNetwork(t *testing.T, n int) *topology.Network {
	t.Helper()
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	caches := make([]topology.NodeID, n)
	prev := o
	for i := range caches {
		caches[i] = g.AddNode(topology.KindStub, 0)
		if err := g.AddEdge(prev, caches[i], 10); err != nil {
			t.Fatal(err)
		}
		prev = caches[i]
	}
	nw, err := topology.NewNetworkAt(g, o, caches)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestPlanChecks(t *testing.T) {
	base := func() *Plan {
		return &Plan{
			Assignments: []int{0, 0, 1},
			Points:      []cluster.Vector{{0, 0}, {2, 0}, {10, 10}},
			Centers:     []cluster.Vector{{1, 0}, {10, 10}},
			Features:    []cluster.Vector{{0, 0}, {2, 0}, {10, 10}},
			ServerDist:  []float64{0, 2, 10},
			Algorithm:   AlgoKMeans,
		}
	}
	nw3 := lineNetwork(t, 3)
	if err := base().Verify(nw3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	tests := []struct {
		name   string
		nw     *topology.Network
		mutate func(*Plan)
		stage  string
	}{
		{"wrong cache count", lineNetwork(t, 4), func(*Plan) {}, "plan"},
		{"missing point", nw3, func(p *Plan) { p.Points = p.Points[:2] }, "plan"},
		{"center count mismatch", nw3, func(p *Plan) { p.Centers = p.Centers[:1] }, "partition"},
		{"dimension mismatch", nw3, func(p *Plan) { p.Points[1] = cluster.Vector{1} }, "dimensions"},
		{"NaN center", nw3, func(p *Plan) { p.Centers[0] = cluster.Vector{0, math.NaN()} }, "dimensions"},
		{"stale center", nw3, func(p *Plan) { p.Centers[0] = cluster.Vector{5, 5} }, "centers"},
		{"feature count mismatch", nw3, func(p *Plan) { p.Features = p.Features[:1] }, "plan"},
		{"short server distances", nw3, func(p *Plan) { p.ServerDist = p.ServerDist[:1] }, "plan"},
		{"stale center, algorithm zero", nw3, func(p *Plan) {
			p.Algorithm = 0
			p.Centers[0] = cluster.Vector{5, 5}
		}, "centers"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(p)
			wantStage(t, p.Verify(tt.nw), tt.stage)
		})
	}
	// Only K-medoids plans skip the means check: their centers are real
	// points.
	p := base()
	p.Algorithm = AlgoKMedoids
	p.Centers[0] = cluster.Vector{0, 0}
	if err := p.Verify(nw3); err != nil {
		t.Fatalf("medoid-style plan rejected: %v", err)
	}
}

// pickSeeds is a cluster.Seeder returning fixed indices.
type pickSeeds struct {
	indices []int
}

func (p pickSeeds) Seed(cluster.Matrix, int, *simrand.Source) ([]int, error) {
	return p.indices, nil
}

func TestCentersAreMeansCatchesKMeansRepair(t *testing.T) {
	// End-to-end regression for the stale-centers K-means bug: this input
	// empties cluster 0 on the final reassignment round, forcing the
	// post-loop empty-cluster repair to steal a point. If K-means ever
	// again skips recomputing the donor's mean after that repair (the
	// pre-fix behavior), this invariant check is what catches it.
	points := []cluster.Vector{{0}, {10}, {-1}, {-3}, {21}, {10.6}, {10.7}}
	res, err := cluster.KMeans(points, 3, pickSeeds{[]int{0, 2, 4}}, cluster.Options{MaxIterations: 1}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := partition(res.Assignments, res.K()); err != nil {
		t.Fatalf("K-means emitted a malformed partition: %v", err)
	}
	if err := centersAreMeans(points, res.Assignments, res.Centers); err != nil {
		t.Fatalf("K-means emitted stale centers: %v", err)
	}
}
