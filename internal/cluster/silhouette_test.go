package cluster

import (
	"testing"

	"edgecachegroups/internal/simrand"
)

func TestSilhouetteSeparatedBlobs(t *testing.T) {
	src := simrand.New(1)
	points := mustMatrix(t, threeBlobs(15, src))
	assign := make([]int, points.Rows())
	for i := range assign {
		assign[i] = i / 15
	}
	s, err := Silhouette(points, assign, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.8 {
		t.Fatalf("silhouette of well-separated blobs = %v, want > 0.8", s)
	}
}

func TestSilhouetteBadPartitionIsWorse(t *testing.T) {
	src := simrand.New(2)
	points := mustMatrix(t, threeBlobs(15, src))
	good := make([]int, points.Rows())
	bad := make([]int, points.Rows())
	for i := range good {
		good[i] = i / 15
		bad[i] = i % 3 // scrambles blobs across clusters
	}
	gs, err := Silhouette(points, good, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Silhouette(points, bad, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gs <= bs {
		t.Fatalf("good partition (%v) not better than scrambled (%v)", gs, bs)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	points := mustMatrix(t, []Vector{{1}, {2}})
	if _, err := Silhouette(Matrix{}, nil, 1, 1); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := Silhouette(points, []int{0}, 1, 1); err == nil {
		t.Fatal("mismatched assignments accepted")
	}
	if _, err := Silhouette(points, []int{0, 5}, 2, 1); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	if _, err := Silhouette(points, []int{0, 0}, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSilhouetteSingleCluster(t *testing.T) {
	points := mustMatrix(t, []Vector{{1}, {2}, {3}})
	s, err := Silhouette(points, []int{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("single-cluster silhouette = %v, want 0", s)
	}
}

func TestSilhouetteSingletons(t *testing.T) {
	points := mustMatrix(t, []Vector{{0}, {100}})
	s, err := Silhouette(points, []int{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("all-singleton silhouette = %v, want 0", s)
	}
}
