package cluster

import (
	"fmt"
	"testing"

	"edgecachegroups/internal/simrand"
)

// runModes clusters the same input under every prune mode and worker
// count and asserts the results are bit-identical to the exhaustive
// serial reference: same assignments, same centers (exact float equality),
// same iteration count and convergence flag.
func runModes(t *testing.T, points []Vector, k int, seeder Seeder, opts Options, seed string) *Result {
	t.Helper()
	base := simrand.New(1)
	opts.Prune = PruneNone
	opts.Parallelism = 1
	ref, err := KMeans(points, k, seeder, opts, base.Split(seed))
	if err != nil {
		t.Fatalf("exhaustive reference: %v", err)
	}
	for _, mode := range []PruneMode{PruneNone, PruneAuto, PruneHamerly, PruneElkan} {
		for _, workers := range []int{1, 8} {
			o := opts
			o.Prune = mode
			o.Parallelism = workers
			got, err := KMeans(points, k, seeder, o, base.Split(seed))
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			label := fmt.Sprintf("mode=%v workers=%d", mode, workers)
			if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
				t.Fatalf("%s: iterations/converged = %d/%v, want %d/%v",
					label, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
			}
			for i := range ref.Assignments {
				if got.Assignments[i] != ref.Assignments[i] {
					t.Fatalf("%s: assignment[%d] = %d, want %d",
						label, i, got.Assignments[i], ref.Assignments[i])
				}
			}
			for c := range ref.Centers {
				for j := range ref.Centers[c] {
					if got.Centers[c][j] != ref.Centers[c][j] {
						t.Fatalf("%s: center[%d][%d] = %v, want %v (not bit-identical)",
							label, c, j, got.Centers[c][j], ref.Centers[c][j])
					}
				}
			}
		}
	}
	return ref
}

func TestPruneMatchesExhaustiveOnBlobs(t *testing.T) {
	src := simrand.New(42)
	points := threeBlobs(40, src)
	for _, k := range []int{1, 2, 3, 7} {
		runModes(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("blobs/%d", k))
	}
}

func TestPruneMatchesExhaustiveOnUniformNoise(t *testing.T) {
	// Unstructured data: bounds are weak, so the pruned paths exercise the
	// full-scan fallback heavily.
	src := simrand.New(7)
	points := make([]Vector, 300)
	for i := range points {
		p := make(Vector, 6)
		for j := range p {
			p[j] = src.Uniform(0, 10)
		}
		points[i] = p
	}
	for _, k := range []int{2, 16} {
		runModes(t, points, k, SpreadSeeder{}, DefaultOptions(), fmt.Sprintf("noise/%d", k))
	}
}

func TestPruneMatchesExhaustiveWithDuplicatePoints(t *testing.T) {
	// Adversarial: many exactly-coincident points produce zero distances,
	// zero-drift centers, and distance ties everywhere.
	src := simrand.New(9)
	base := threeBlobs(10, src)
	var points []Vector
	for _, p := range base {
		points = append(points, p, p.Clone(), p.Clone())
	}
	for _, k := range []int{3, 5} {
		runModes(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("dup/%d", k))
	}
}

func TestPruneMatchesExhaustiveKCloseToN(t *testing.T) {
	// k near n forces empty clusters and exercises the repair path, which
	// must invalidate the pruning bounds; a stale bound here would show up
	// as a divergent assignment.
	src := simrand.New(11)
	points := threeBlobs(6, src) // n = 18
	for _, k := range []int{15, 17, 18} {
		runModes(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("kn/%d", k))
	}
}

func TestPruneMatchesExhaustiveOnTies(t *testing.T) {
	// Symmetric grid: every point is equidistant from multiple potential
	// centers, so nearly every nearest-center decision is a tie that must
	// resolve to the lowest center index in all modes.
	var points []Vector
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			points = append(points, Vector{float64(x), float64(y)})
		}
	}
	// Duplicate the grid so duplicate points coincide with the symmetry.
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			points = append(points, Vector{float64(x), float64(y)})
		}
	}
	for _, k := range []int{2, 4, 8} {
		runModes(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("ties/%d", k))
	}
}

func TestPruneMatchesExhaustiveCoLocatedSeeds(t *testing.T) {
	// fixedSeeder picks indices 0 and 1, which are the same coordinates:
	// two co-located centers make every point's center choice a pure
	// lowest-index tie-break, and leave one cluster empty (repair fires).
	points := []Vector{{5, 5}, {5, 5}, {1, 0}, {2, 0}, {3, 0}, {9, 9}}
	runModes(t, points, 2, fixedSeeder{[]int{0, 1}}, DefaultOptions(), "coloc")
}

func TestPruneMatchesExhaustiveReassignFrac(t *testing.T) {
	// Loose termination: iteration stops early, so pruned modes must agree
	// on the per-round moved counts, not just the fixed point.
	src := simrand.New(13)
	points := threeBlobs(30, src)
	opts := DefaultOptions()
	opts.ReassignFrac = 0.05
	runModes(t, points, 3, UniformSeeder{}, opts, "frac")
}

func TestPruneReducesDistEvals(t *testing.T) {
	// Structured data at moderate scale: bounds pruning must eliminate the
	// bulk of the distance evaluations (the large-N bench pins the >=3x
	// acceptance ratio; this guards the mechanism in the unit suite).
	src := simrand.New(21)
	points := threeBlobs(400, src)
	base := simrand.New(2)
	run := func(mode PruneMode) *Result {
		opts := DefaultOptions()
		opts.Prune = mode
		res, err := KMeans(points, 3, UniformSeeder{}, opts, base.Split("evals"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ex := run(PruneNone)
	for _, mode := range []PruneMode{PruneHamerly, PruneElkan} {
		pr := run(mode)
		if pr.DistEvals >= ex.DistEvals {
			t.Fatalf("%v DistEvals = %d, not below exhaustive %d", mode, pr.DistEvals, ex.DistEvals)
		}
		t.Logf("%v: %d evals vs exhaustive %d (%.1fx fewer)",
			mode, pr.DistEvals, ex.DistEvals, float64(ex.DistEvals)/float64(pr.DistEvals))
	}
	if ex.DistEvals != int64(len(points)*3*(ex.Iterations+1)) {
		t.Fatalf("exhaustive DistEvals = %d, want n*k*(iters+1) = %d",
			ex.DistEvals, len(points)*3*(ex.Iterations+1))
	}
}

// TestPruneEvalRatioLargeBlobs guards the >=3x acceptance ratio on a
// scaled-down replica of the large-N benchmark geometry (bench_test.go's
// benchBlobMatrix: 64 well-separated blobs in 16 dimensions, k = 64). The
// full 100k-point config lives in BenchmarkKMeansFlat*; this runs the same
// shape at 20k points so the ratio stays pinned in the unit suite.
func TestPruneEvalRatioLargeBlobs(t *testing.T) {
	const (
		n, dim, k = 20_000, 16, 64
	)
	src := simrand.New(16)
	centers := NewMatrix(k, dim)
	for c := 0; c < k; c++ {
		row := centers.Row(c)
		for j := range row {
			row[j] = src.Uniform(0, 300)
		}
	}
	points := NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(i % k)
		row := points.Row(i)
		for j := range row {
			row[j] = c[j] + src.Uniform(-12, 12)
		}
	}
	base := simrand.New(2)
	run := func(mode PruneMode) *Result {
		opts := DefaultOptions()
		opts.Prune = mode
		res, err := KMeansMatrix(points, k, UniformSeeder{}, opts, base.Split("large"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ex := run(PruneNone)
	for _, mode := range []PruneMode{PruneHamerly, PruneElkan} {
		pr := run(mode)
		ratio := float64(ex.DistEvals) / float64(pr.DistEvals)
		t.Logf("%v: %d evals vs exhaustive %d (%.1fx fewer)", mode, pr.DistEvals, ex.DistEvals, ratio)
		if ratio < 3 {
			t.Fatalf("%v eliminates only %.1fx of the distance evaluations on the large-N geometry, want >= 3x",
				mode, ratio)
		}
	}
}

func TestKMeansMatrixSharesResultWithKMeans(t *testing.T) {
	src := simrand.New(3)
	points := threeBlobs(25, src)
	base := simrand.New(4)
	fromVecs, err := KMeans(points, 3, UniformSeeder{}, DefaultOptions(), base.Split("m"))
	if err != nil {
		t.Fatal(err)
	}
	fromMatrix, err := KMeansMatrix(mustMatrix(t, points), 3, UniformSeeder{}, DefaultOptions(), base.Split("m"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromVecs.Assignments {
		if fromVecs.Assignments[i] != fromMatrix.Assignments[i] {
			t.Fatalf("assignment[%d] differs between KMeans and KMeansMatrix", i)
		}
	}
	if fromVecs.DistEvals != fromMatrix.DistEvals {
		t.Fatalf("DistEvals differ: %d vs %d", fromVecs.DistEvals, fromMatrix.DistEvals)
	}
}

func TestPruneModeValidate(t *testing.T) {
	opts := DefaultOptions()
	opts.Prune = PruneMode(99)
	if err := opts.Validate(); err == nil {
		t.Fatal("Validate accepted unknown PruneMode")
	}
	for _, mode := range []PruneMode{PruneAuto, PruneNone, PruneHamerly, PruneElkan} {
		opts.Prune = mode
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate rejected %v: %v", mode, err)
		}
	}
}
