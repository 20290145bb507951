package cluster

import (
	"testing"

	"edgecachegroups/internal/simrand"
)

// TestSilhouetteParallelismInvariant pins Silhouette's contract: the
// coefficient is bit-identical for every worker count (ordered chunk
// reduction).
func TestSilhouetteParallelismInvariant(t *testing.T) {
	src := simrand.New(31)
	points := threeBlobs(50, src) // n = 150: several chunks
	res, err := KMeans(points, 3, UniformSeeder{}, DefaultOptions(), src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	m := mustMatrix(t, points)
	want, err := Silhouette(m, res.Assignments, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		got, err := Silhouette(m, res.Assignments, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: silhouette = %v, want %v (not bit-identical)", workers, got, want)
		}
	}
}

// TestSuggestKParallelismInvariant pins SuggestK's contract: the kMax
// clustering runs draw from independent deterministic substreams, so the
// suggestion and the whole curve are bit-identical at every worker count.
func TestSuggestKParallelismInvariant(t *testing.T) {
	src := simrand.New(37)
	points := mustMatrix(t, threeBlobs(15, src))
	serialOpts := DefaultOptions()
	wantK, wantCurve, err := SuggestK(points, 8, UniformSeeder{}, serialOpts, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if wantK != 3 {
		t.Fatalf("SuggestK = %d on 3 well-separated blobs, want 3", wantK)
	}
	for _, workers := range []int{2, 8} {
		opts := DefaultOptions()
		opts.Parallelism = workers
		gotK, gotCurve, err := SuggestK(points, 8, UniformSeeder{}, opts, simrand.New(5))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotK != wantK {
			t.Fatalf("workers=%d: SuggestK = %d, want %d", workers, gotK, wantK)
		}
		for i := range wantCurve {
			if gotCurve[i] != wantCurve[i] {
				t.Fatalf("workers=%d: curve[%d] = %v, want %v (not bit-identical)",
					workers, i, gotCurve[i], wantCurve[i])
			}
		}
	}
}

// TestSilhouetteLoopAllocationFree guards the satellite fix: the O(N²)
// silhouette loop must not allocate per point (the per-cluster scratch is
// hoisted per worker).
func TestSilhouetteLoopAllocationFree(t *testing.T) {
	src := simrand.New(43)
	small := threeBlobs(10, src)
	big := threeBlobs(40, src)
	res := func(points []Vector) []int {
		r, err := KMeans(points, 3, UniformSeeder{}, DefaultOptions(), src.Split("km"))
		if err != nil {
			t.Fatal(err)
		}
		return r.Assignments
	}
	smallAssign, bigAssign := res(small), res(big)
	allocs := func(points []Vector, assign []int) float64 {
		m := mustMatrix(t, points)
		return testing.AllocsPerRun(10, func() {
			if _, err := Silhouette(m, assign, 3, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := allocs(small, smallAssign), allocs(big, bigAssign)
	// 4x the points means 4x the chunks; fixed bookkeeping grows by the
	// chunk-total slice only. Allow a small slack for the chunk slice but
	// fail hard if the per-point scratch allocation is reintroduced (which
	// would add hundreds of allocations here).
	if a2 > a1+8 {
		t.Fatalf("silhouette allocations scale with n: %v for n=%d vs %v for n=%d",
			a1, len(small), a2, len(big))
	}
}
