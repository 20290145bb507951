package cluster

import (
	"fmt"
	"math"
	"testing"

	"edgecachegroups/internal/simrand"
)

// runPruned clusters the same input pruned (PruneAuto) and exhaustively
// (PruneNone), each at Parallelism 1 and 8, and asserts every run is
// bit-identical to the serial exhaustive reference: same assignments, same
// centers (exact float equality), same iteration count and convergence
// flag.
func runPruned(t *testing.T, points []Vector, k int, seeder Seeder, opts Options, seed string) *Result {
	t.Helper()
	base := simrand.New(1)
	opts.Prune = PruneNone
	opts.Parallelism = 1
	ref, err := KMeans(points, k, seeder, opts, base.Split(seed))
	if err != nil {
		t.Fatalf("exhaustive reference: %v", err)
	}
	for _, mode := range []PruneMode{PruneNone, PruneAuto} {
		for _, workers := range []int{1, 8} {
			o := opts
			o.Prune = mode
			o.Parallelism = workers
			got, err := KMeans(points, k, seeder, o, base.Split(seed))
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			if msg := diffResults(got, ref); msg != "" {
				t.Fatalf("mode=%v workers=%d: %s", mode, workers, msg)
			}
		}
	}
	return ref
}

// diffResults describes the first way got differs from the reference
// want — assignments, bitwise centers, iteration count, convergence — or
// returns "" when the two are bit-identical.
func diffResults(got, want *Result) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("iterations/converged = %d/%v, want %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			return fmt.Sprintf("assignment[%d] = %d, want %d", i, got.Assignments[i], want.Assignments[i])
		}
	}
	for c := range want.Centers {
		for j := range want.Centers[c] {
			if math.Float64bits(got.Centers[c][j]) != math.Float64bits(want.Centers[c][j]) {
				return fmt.Sprintf("center[%d][%d] = %v, want %v (not bit-identical)",
					c, j, got.Centers[c][j], want.Centers[c][j])
			}
		}
	}
	return ""
}

func TestPruneMatchesExhaustiveOnBlobs(t *testing.T) {
	src := simrand.New(42)
	points := threeBlobs(40, src)
	for _, k := range []int{1, 2, 3, 7} {
		runPruned(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("blobs/%d", k))
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
		runPruned(t, points, k, SpreadSeeder{}, DefaultOptions(), fmt.Sprintf("noise/%d", k))
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
		runPruned(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("dup/%d", k))
	}
}

func TestPruneMatchesExhaustiveKCloseToN(t *testing.T) {
	// k near n forces empty clusters and exercises the repair path, which
	// must invalidate the pruning bounds; a stale bound here would show up
	// as a divergent assignment.
	src := simrand.New(11)
	points := threeBlobs(6, src) // n = 18
	for _, k := range []int{15, 17, 18} {
		runPruned(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("kn/%d", k))
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
		runPruned(t, points, k, UniformSeeder{}, DefaultOptions(), fmt.Sprintf("ties/%d", k))
	}
}

func TestPruneMatchesExhaustiveCoLocatedSeeds(t *testing.T) {
	// fixedSeeder picks indices 0 and 1, which are the same coordinates:
	// two co-located centers make every point's center choice a pure
	// lowest-index tie-break, and leave one cluster empty (repair fires).
	points := []Vector{{5, 5}, {5, 5}, {1, 0}, {2, 0}, {3, 0}, {9, 9}}
	runPruned(t, points, 2, fixedSeeder{[]int{0, 1}}, DefaultOptions(), "coloc")
}

func TestPruneMatchesExhaustiveReassignFrac(t *testing.T) {
	// Loose termination: iteration stops early, so pruned modes must agree
	// on the per-round moved counts, not just the fixed point.
	src := simrand.New(13)
	points := threeBlobs(30, src)
	opts := DefaultOptions()
	opts.ReassignFrac = 0.05
	runPruned(t, points, 3, UniformSeeder{}, opts, "frac")
}

func TestPruneMatchesExhaustiveGroupCounts(t *testing.T) {
	// k below, at and above the group size: k < 10 runs with one group
	// (the single-bound case), larger k with ⌈k/10⌉ or fewer groups.
	src := simrand.New(17)
	points := make([]Vector, 240)
	for i := range points {
		points[i] = Vector{src.Uniform(0, 50), src.Uniform(0, 50), src.Uniform(0, 50)}
	}
	for _, tc := range []struct{ k, minGroups, maxGroups int }{
		{9, 1, 1}, {10, 1, 1}, {11, 1, 2}, {35, 2, 4}, {80, 2, 8},
	} {
		sc := newKMScratch(mustMatrix(t, points), tc.k, true)
		for c := 0; c < tc.k; c++ {
			copy(sc.centerRow(c), points[3*c])
		}
		formCenterGroups(sc, 1)
		if sc.groups < tc.minGroups || sc.groups > tc.maxGroups {
			t.Fatalf("k=%d: %d groups, want %d..%d", tc.k, sc.groups, tc.minGroups, tc.maxGroups)
		}
		runPruned(t, points, tc.k, SpreadSeeder{}, DefaultOptions(), fmt.Sprintf("groups/%d", tc.k))
	}
}

func TestPruneMatchesExhaustiveRepairAfterPrunedRound(t *testing.T) {
	// Hand-built so that the first pruned reassignment empties cluster 2:
	// center 1 moves to within 2.74 of point 4 (cluster 2's seed) while
	// cluster 2's mean moves 3.27 away from it, and center 3 pulls
	// cluster 2's other members. The round after repairs cluster 2 by
	// moving its center onto the farthest point, (-1000, 50) in the west
	// cluster. Center 0 and eight west singletons form one center group
	// and centers 1-3 the other, so a sweep that trusted the bounds from
	// before the repair would skip the east group for that point (its
	// stale bound there is about 1000, its best west distance 50) and
	// miss the relocated center at distance 0.
	points := []Vector{
		{-1000, 0}, {-1000, 50}, {-1000, -50},
		{-4, 0}, {0, 0}, {10, 0},
		{-2.1, 0}, {-2.1, 0.5}, {4.9, 0}, {4.9, 0.1}, {5.1, 0}, {5.1, 0}, {5.1, 0},
	}
	seeds := []int{0, 3, 4, 5}
	for j := 0; j < 8; j++ {
		seeds = append(seeds, len(points))
		points = append(points, Vector{-1100 - 10*float64(j), 0})
	}
	seeder := fixedSeeder{seeds}
	m := mustMatrix(t, points)
	if got := repairRounds(t, m, len(seeds), seeder, DefaultOptions()); len(got) == 0 || got[0] != 2 {
		t.Fatalf("repair rounds = %v, want the first repair in round 2", got)
	}
	sc := newKMScratch(m, len(seeds), true)
	for c, idx := range seeds {
		copy(sc.centerRow(c), m.Row(idx))
	}
	formCenterGroups(sc, 1)
	if g := sc.groupOf; sc.groups != 2 || g[0] == g[2] || g[1] != g[2] || g[3] != g[2] {
		t.Fatalf("center groups %v, want centers 1-3 apart from center 0", g)
	}
	ref := runPruned(t, points, len(seeds), seeder, DefaultOptions(), "repair")
	if ref.Assignments[1] != 2 {
		t.Fatalf("point 1 ends in cluster %d, want the repaired cluster 2", ref.Assignments[1])
	}
}

// repairRounds replays KMeansMatrix's exhaustive serial loop and returns
// the iterative-phase rounds (from 1) in which an empty cluster was
// repaired, so a test can check that its input repairs where it means to.
func repairRounds(t *testing.T, m Matrix, k int, seeder Seeder, opts Options) []int {
	t.Helper()
	seedIdx, err := seedCenters(seeder, m, k, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sc := newKMScratch(m, k, false)
	for c, idx := range seedIdx {
		copy(sc.centerRow(c), m.Row(idx))
	}
	assign := make([]int, m.Rows())
	runSweep(sc, sweepAssign, assign, 1)
	var rounds []int
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		recomputeCenters(sc, assign, 1)
		if repairEmptyClusters(sc, assign) {
			rounds = append(rounds, iter)
		}
		if moved := reassignFull(sc, assign, 1); float64(moved)/float64(m.Rows()) <= opts.ReassignFrac {
			break
		}
	}
	return rounds
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
	ex, pr := run(PruneNone), run(PruneAuto)
	if pr.DistEvals >= ex.DistEvals {
		t.Fatalf("pruned DistEvals = %d, not below exhaustive %d", pr.DistEvals, ex.DistEvals)
	}
	t.Logf("pruned: %d evals vs exhaustive %d (%.1fx fewer)",
		pr.DistEvals, ex.DistEvals, float64(ex.DistEvals)/float64(pr.DistEvals))
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
	ex, pr := run(PruneNone), run(PruneAuto)
	ratio := float64(ex.DistEvals) / float64(pr.DistEvals)
	t.Logf("pruned: %d evals vs exhaustive %d (%.1fx fewer)", pr.DistEvals, ex.DistEvals, ratio)
	if ratio < 3 {
		t.Fatalf("pruning eliminates only %.1fx of the distance evaluations on the large-N geometry, want >= 3x", ratio)
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
	// 2 and 3 were the retired single-bound and per-center modes.
	for _, mode := range []PruneMode{2, 3, 99, -1} {
		opts.Prune = mode
		if err := opts.Validate(); err == nil {
			t.Fatalf("Validate accepted unknown %v", mode)
		}
	}
	for _, mode := range []PruneMode{PruneAuto, PruneNone} {
		opts.Prune = mode
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate rejected %v: %v", mode, err)
		}
	}
}

// FuzzKMeansPruneExact differentially tests the pruned sweep against the
// exhaustive reference on small decoded inputs: n points of dim
// coordinates quantized to a few levels (which forces distance ties),
// optional duplicate rows, any k in [1, n], a ReassignFrac, and
// Parallelism 1 or 3. The pruned result must equal the PruneNone result
// exactly: assignments, bitwise centers, Iterations and Converged.
func FuzzKMeansPruneExact(f *testing.F) {
	f.Add([]byte{12, 2, 5, 0, 0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 2})
	// n=41, k=24 (up to three center groups): repairs an empty cluster; a
	// post-repair sweep that trusted the old group bounds gets it wrong.
	f.Add([]byte{40, 3, 23, 1, 7, 200, 13, 9, 4, 4, 4, 0, 0, 0, 255, 3, 17, 2, 8, 1, 9, 5, 5, 6})
	f.Add([]byte{30, 1, 12, 2, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next())%48
		dim := 1 + int(next())%4
		k := 1 + int(next())%n
		flags := next()
		opts := DefaultOptions()
		opts.ReassignFrac = []float64{0, 0, 0.05, 0.2}[flags&3]
		opts.MaxIterations = 1 + int(next())%40
		workers := 1
		if flags&4 != 0 {
			workers = 3
		}
		seed := int64(next())
		m := NewMatrix(n, dim)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			if i > 0 && next()%4 == 0 {
				copy(row, m.Row(i-1)) // duplicate row
				continue
			}
			for j := range row {
				row[j] = float64(next() % 5)
			}
		}
		run := func(mode PruneMode) *Result {
			o := opts
			o.Prune = mode
			o.Parallelism = workers
			res, err := KMeansMatrix(m, k, UniformSeeder{}, o, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if msg := diffResults(run(PruneAuto), run(PruneNone)); msg != "" {
			t.Fatalf("n=%d dim=%d k=%d opts=%+v workers=%d: pruned differs from exhaustive: %s",
				n, dim, k, opts, workers, msg)
		}
	})
}
