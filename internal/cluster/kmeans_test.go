package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"edgecachegroups/internal/simrand"
)

// threeBlobs returns 3 well-separated 2-D clusters of size m each.
func threeBlobs(m int, src *simrand.Source) []Vector {
	centers := []Vector{{0, 0}, {100, 0}, {0, 100}}
	var points []Vector
	for _, c := range centers {
		for i := 0; i < m; i++ {
			points = append(points, Vector{
				c[0] + src.Normal(0, 2),
				c[1] + src.Normal(0, 2),
			})
		}
	}
	return points
}

func TestL2(t *testing.T) {
	if got := L2(Vector{0, 0}, Vector{3, 4}); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := L2(Vector{1, 2, 3}, Vector{1, 2, 3}); got != 0 {
		t.Fatalf("L2 identical = %v, want 0", got)
	}
}

func TestL2PanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L2 with mismatched dims did not panic")
		}
	}()
	L2(Vector{1}, Vector{1, 2})
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	src := simrand.New(1)
	points := threeBlobs(20, src)
	res, err := KMeans(points, 3, UniformSeeder{}, DefaultOptions(), src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("K-means did not converge on separable blobs")
	}
	if res.K() != 3 {
		t.Fatalf("K = %d, want 3", res.K())
	}
	// Every blob must map to a single cluster.
	for b := 0; b < 3; b++ {
		first := res.Assignments[b*20]
		for i := 0; i < 20; i++ {
			if got := res.Assignments[b*20+i]; got != first {
				t.Fatalf("blob %d split across clusters (%d vs %d)", b, first, got)
			}
		}
	}
	// And the three blobs map to three distinct clusters.
	if res.Assignments[0] == res.Assignments[20] ||
		res.Assignments[20] == res.Assignments[40] ||
		res.Assignments[0] == res.Assignments[40] {
		t.Fatal("blobs merged into one cluster")
	}
}

func TestKMeansValidation(t *testing.T) {
	src := simrand.New(2)
	points := []Vector{{1, 2}, {3, 4}}
	tests := []struct {
		name   string
		points []Vector
		k      int
		seeder Seeder
		opts   Options
	}{
		{name: "no points", points: nil, k: 1, seeder: UniformSeeder{}},
		{name: "zero dim", points: []Vector{{}}, k: 1, seeder: UniformSeeder{}},
		{name: "ragged dims", points: []Vector{{1}, {1, 2}}, k: 1, seeder: UniformSeeder{}},
		{name: "nan component", points: []Vector{{math.NaN()}}, k: 1, seeder: UniformSeeder{}},
		{name: "inf component", points: []Vector{{math.Inf(1)}}, k: 1, seeder: UniformSeeder{}},
		{name: "k zero", points: points, k: 0, seeder: UniformSeeder{}},
		{name: "k too big", points: points, k: 3, seeder: UniformSeeder{}},
		{name: "nil seeder", points: points, k: 1, seeder: nil},
		{name: "bad options", points: points, k: 1, seeder: UniformSeeder{}, opts: Options{MaxIterations: -1}},
		{name: "bad reassign frac", points: points, k: 1, seeder: UniformSeeder{}, opts: Options{ReassignFrac: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KMeans(tt.points, tt.k, tt.seeder, tt.opts, src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// badSeeder returns broken seeds to exercise defensive checks.
type badSeeder struct {
	indices []int
}

func (b badSeeder) Seed(Matrix, int, *simrand.Source) ([]int, error) {
	return b.indices, nil
}

func TestKMeansRejectsBrokenSeeder(t *testing.T) {
	points := []Vector{{0}, {1}, {2}}
	src := simrand.New(3)
	tests := []struct {
		name    string
		indices []int
	}{
		{name: "wrong count", indices: []int{0}},
		{name: "out of range", indices: []int{0, 5}},
		{name: "negative", indices: []int{0, -1}},
		{name: "duplicate", indices: []int{1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KMeans(points, 2, badSeeder{tt.indices}, DefaultOptions(), src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := simrand.New(seed)
		n := 20 + src.Intn(40)
		k := 1 + src.Intn(8)
		points := make([]Vector, n)
		for i := range points {
			points[i] = Vector{src.Uniform(0, 100), src.Uniform(0, 100), src.Uniform(0, 100)}
		}
		res, err := KMeans(points, k, UniformSeeder{}, DefaultOptions(), src.Split("km"))
		if err != nil {
			return false
		}
		// Invariant 1: every point assigned to a valid cluster.
		if len(res.Assignments) != n {
			return false
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= k {
				return false
			}
		}
		// Invariant 2: no empty clusters.
		for _, s := range res.Sizes() {
			if s == 0 {
				return false
			}
		}
		// Invariant 3: at convergence each point is at its nearest center
		// (ties go to the lowest index).
		if res.Converged {
			for i, p := range points {
				best := 0
				for c := 1; c < k; c++ {
					if sqL2(p, res.Centers[c]) < sqL2(p, res.Centers[best]) {
						best = c
					}
				}
				if best != res.Assignments[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	points := []Vector{{0}, {10}, {20}, {30}}
	res, err := KMeans(points, 4, UniformSeeder{}, DefaultOptions(), simrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Sizes()
	for c, s := range sizes {
		if s != 1 {
			t.Fatalf("cluster %d has size %d, want 1", c, s)
		}
	}
}

func TestKMeansKEqualsOne(t *testing.T) {
	points := []Vector{{0, 0}, {2, 0}, {4, 0}}
	res, err := KMeans(points, 1, UniformSeeder{}, DefaultOptions(), simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Centers[0][0]; math.Abs(got-2) > 1e-9 {
		t.Fatalf("single-cluster mean = %v, want 2", got)
	}
	if got := res.Centers[0][1]; got != 0 {
		t.Fatalf("single-cluster mean y = %v, want 0", got)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	points := []Vector{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := KMeans(points, 2, UniformSeeder{}, DefaultOptions(), simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 4 {
		t.Fatalf("assignments = %v", res.Assignments)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	src1 := simrand.New(7)
	points1 := threeBlobs(15, src1)
	res1, err := KMeans(points1, 3, UniformSeeder{}, DefaultOptions(), src1.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	src2 := simrand.New(7)
	points2 := threeBlobs(15, src2)
	res2, err := KMeans(points2, 3, UniformSeeder{}, DefaultOptions(), src2.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Assignments {
		if res1.Assignments[i] != res2.Assignments[i] {
			t.Fatalf("non-deterministic assignment at %d", i)
		}
	}
}

func TestResultMembersAndWithinSS(t *testing.T) {
	points := []Vector{{0}, {1}, {100}, {101}}
	res, err := KMeans(points, 2, UniformSeeder{}, DefaultOptions(), simrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c, members := range membersAll(res.Assignments, res.K()) {
		for _, i := range members {
			if res.Assignments[i] != c {
				t.Fatalf("membersAll lists point %d in cluster %d, assigned to %d", i, c, res.Assignments[i])
			}
		}
		total += len(members)
	}
	if total != 4 {
		t.Fatalf("membersAll covers %d points, want 4", total)
	}
	// Optimal SS: each pair clusters together -> SS = 2*(0.5^2)*2 = 1.
	if ss := res.WithinClusterSS(mustMatrix(t, points)); math.Abs(ss-1) > 1e-9 {
		t.Fatalf("WithinClusterSS = %v, want 1", ss)
	}
}

func TestUniformSeederDistinct(t *testing.T) {
	points := make([]Vector, 10)
	for i := range points {
		points[i] = Vector{float64(i)}
	}
	idx, err := UniformSeeder{}.Seed(mustMatrix(t, points), 5, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate seed %d", i)
		}
		seen[i] = true
	}
}

func TestWeightedSeederBias(t *testing.T) {
	points := make([]Vector, 10)
	weights := make([]float64, 10)
	for i := range points {
		points[i] = Vector{float64(i)}
		weights[i] = 0.001
	}
	weights[3] = 1000 // index 3 should almost always be seeded
	m := mustMatrix(t, points)
	src := simrand.New(10)
	hits := 0
	for trial := 0; trial < 100; trial++ {
		idx, err := WeightedSeeder{Weights: weights}.Seed(m, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			if i == 3 {
				hits++
			}
		}
	}
	if hits < 95 {
		t.Fatalf("heavy index seeded only %d/100 times", hits)
	}
}

func TestWeightedSeederErrors(t *testing.T) {
	points := mustMatrix(t, []Vector{{0}, {1}})
	if _, err := (WeightedSeeder{Weights: []float64{1}}).Seed(points, 1, simrand.New(11)); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if _, err := (WeightedSeeder{Weights: []float64{0, 0}}).Seed(points, 1, simrand.New(11)); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestSDSLSeeder(t *testing.T) {
	if s := SDSLSeeder([]float64{3, 4}, 0); s != (UniformSeeder{}) {
		t.Fatalf("theta=0 seeder = %#v, want UniformSeeder (SL)", s)
	}
	// Distances below 1 ms are floored so one near-origin cache cannot
	// swamp the others.
	seeder := SDSLSeeder([]float64{0.5, 2, 4}, 2)
	s, ok := seeder.(WeightedSeeder)
	if !ok {
		t.Fatalf("theta=2 seeder is %T, want WeightedSeeder", seeder)
	}
	for i, want := range []float64{1, 0.25, 0.0625} {
		if s.Weights[i] != want {
			t.Fatalf("weight[%d] = %v, want %v", i, s.Weights[i], want)
		}
	}
}

func TestSpreadSeederCoversBlobs(t *testing.T) {
	src := simrand.New(12)
	points := threeBlobs(10, src)
	idx, err := SpreadSeeder{}.Seed(mustMatrix(t, points), 3, src.Split("seed"))
	if err != nil {
		t.Fatal(err)
	}
	// The three seeds should land in three different blobs.
	blobs := make(map[int]bool)
	for _, i := range idx {
		blobs[i/10] = true
	}
	if len(blobs) != 3 {
		t.Fatalf("spread seeds cover %d blobs, want 3 (indices %v)", len(blobs), idx)
	}
}

func TestSpreadSeederDuplicatePoints(t *testing.T) {
	points := mustMatrix(t, []Vector{{5}, {5}, {5}})
	idx, err := SpreadSeeder{}.Seed(points, 3, simrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate seed index %d", i)
		}
		seen[i] = true
	}
}

func TestSpreadSeederKTooLarge(t *testing.T) {
	if _, err := (SpreadSeeder{}).Seed(mustMatrix(t, []Vector{{1}}), 2, simrand.New(14)); err == nil {
		t.Fatal("oversized k accepted")
	}
}

func TestSuggestKFindsPlantedClusterCount(t *testing.T) {
	src := simrand.New(20)
	points := threeBlobs(20, src)
	k, curve, err := SuggestK(mustMatrix(t, points), 8, SpreadSeeder{}, DefaultOptions(), src.Split("sk"))
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("SuggestK = %d, want 3 (curve %v)", k, curve)
	}
	if len(curve) != 8 {
		t.Fatalf("curve length = %d", len(curve))
	}
	// SS must be non-increasing in k (up to convergence noise at blobs).
	if curve[0] <= curve[2] {
		t.Fatalf("SS did not fall from k=1 (%v) to k=3 (%v)", curve[0], curve[2])
	}
}

func TestSuggestKErrors(t *testing.T) {
	src := simrand.New(21)
	if _, _, err := SuggestK(Matrix{}, 3, UniformSeeder{}, DefaultOptions(), src); err == nil {
		t.Fatal("empty points accepted")
	}
	points := mustMatrix(t, []Vector{{1}, {2}, {3}})
	if _, _, err := SuggestK(points, 1, UniformSeeder{}, DefaultOptions(), src); err == nil {
		t.Fatal("kMax=1 accepted")
	}
	// kMax > n clamps instead of erroring.
	k, curve, err := SuggestK(points, 10, UniformSeeder{}, DefaultOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 || k < 1 || k > 3 {
		t.Fatalf("clamped SuggestK = %d, curve %v", k, curve)
	}
	// Nil seeder defaults.
	if _, _, err := SuggestK(points, 3, nil, DefaultOptions(), src); err != nil {
		t.Fatalf("nil seeder rejected: %v", err)
	}
}

func TestSuggestKIdenticalPoints(t *testing.T) {
	src := simrand.New(22)
	points := mustMatrix(t, []Vector{{5, 5}, {5, 5}, {5, 5}, {5, 5}})
	k, _, err := SuggestK(points, 4, UniformSeeder{}, DefaultOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("identical points SuggestK = %d, want 1", k)
	}
}

// fixedSeeder returns a predetermined seed index set, so tests can steer
// the initialization phase into a specific configuration.
type fixedSeeder struct {
	indices []int
}

func (f fixedSeeder) Seed(Matrix, int, *simrand.Source) ([]int, error) {
	return f.indices, nil
}

func TestKMeansFinalCentersAreMeans(t *testing.T) {
	// Crafted 1-D input whose last reassignment round empties cluster 0:
	// after the round-one recompute the cluster {0, 10} has mean 5, point 0
	// flees to cluster 1 (mean -2) and point 10 flees to cluster 2 (mean
	// 14.1). MaxIterations=1 ends the loop right there, so the post-loop
	// empty-cluster repair must fire: it steals point 21 (farthest from its
	// mean) into cluster 0, staling the donor cluster's center. The
	// repair-then-recompute loop must leave Centers exactly equal to the
	// member means of the final Assignments; before that loop existed the
	// donor center kept the stolen point's contribution.
	points := []Vector{{0}, {10}, {-1}, {-3}, {21}, {10.6}, {10.7}}
	res, err := KMeans(points, 3, fixedSeeder{[]int{0, 2, 4}}, Options{MaxIterations: 1}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantAssign := []int{1, 2, 1, 1, 0, 2, 2}
	for i, a := range res.Assignments {
		if a != wantAssign[i] {
			t.Fatalf("assignments = %v, want %v (crafted repair scenario did not materialize)", res.Assignments, wantAssign)
		}
	}
	for c, members := range membersAll(res.Assignments, res.K()) {
		if len(members) == 0 {
			t.Fatalf("cluster %d left empty", c)
		}
		var mean float64
		for _, i := range members {
			mean += points[i][0]
		}
		mean /= float64(len(members))
		if got := res.Centers[c][0]; math.Abs(got-mean) > 1e-12 {
			t.Fatalf("cluster %d center = %v, want member mean %v (stale center)", c, got, mean)
		}
	}
}

func TestKMeansReassignFracBoundary(t *testing.T) {
	// Exactly 15 of 22 points move in round one: one anchor at -1, a blob
	// of 15 near 0 that is dragged to the anchor when two far heavyweights
	// pull the second seeded center to ~2858, and 6 heavyweights that stay.
	// ReassignFrac = 15/22 must count that round as converged; the old
	// int-truncated threshold int(15.0/22.0*22) == 14 wrongly demanded
	// another round.
	points := []Vector{{-1}}
	for i := 0; i < 15; i++ {
		points = append(points, Vector{0.1 * float64(i)})
	}
	for i := 0; i < 6; i++ {
		points = append(points, Vector{10000 + float64(i)})
	}
	res, err := KMeans(points, 2, fixedSeeder{[]int{0, 1}}, Options{MaxIterations: 10, ReassignFrac: 15.0 / 22.0}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("converged=%v after %d iterations, want convergence in exactly 1 (fraction threshold truncated)", res.Converged, res.Iterations)
	}
}

func TestKMeansParallelismInvariant(t *testing.T) {
	src := simrand.New(31)
	points := threeBlobs(70, src) // 210 points spans multiple 64-point chunks
	var base *Result
	for _, par := range []int{1, 3, 8} {
		opts := Options{MaxIterations: 50, Parallelism: par}
		res, err := KMeans(points, 5, UniformSeeder{}, opts, simrand.New(31).Split("seed"))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i, a := range res.Assignments {
			if a != base.Assignments[i] {
				t.Fatalf("Parallelism=%d: assignment %d = %d, want %d", par, i, a, base.Assignments[i])
			}
		}
		for c := range res.Centers {
			for j, x := range res.Centers[c] {
				if x != base.Centers[c][j] {
					t.Fatalf("Parallelism=%d: center %d coord %d = %v, want %v (bit-identical)", par, c, j, x, base.Centers[c][j])
				}
			}
		}
		if res.Iterations != base.Iterations || res.Converged != base.Converged {
			t.Fatalf("Parallelism=%d: iterations/converged %d/%v, want %d/%v", par, res.Iterations, res.Converged, base.Iterations, base.Converged)
		}
	}
}

func TestKMeansIterationPhaseAllocationFree(t *testing.T) {
	// The per-iteration scratch lives in one buffer struct allocated up
	// front, so running many more iterations must not allocate more than
	// running few: the iterative phase itself is allocation-free, pruned
	// (k=16: two center groups) and exhaustive alike.
	src := simrand.New(17)
	points := threeBlobs(50, src)
	for _, mode := range []PruneMode{PruneAuto, PruneNone} {
		run := func(iters int) (float64, int) {
			rounds := 0
			allocs := testing.AllocsPerRun(10, func() {
				opts := Options{MaxIterations: iters, Prune: mode}
				res, err := KMeans(points, 16, UniformSeeder{}, opts, simrand.New(5).Split("s"))
				if err != nil {
					t.Fatal(err)
				}
				rounds = res.Iterations
			})
			return allocs, rounds
		}
		few, fewRounds := run(1)
		many, manyRounds := run(64)
		if manyRounds <= fewRounds {
			t.Fatalf("%v: test needs the long run to iterate more (%d vs %d rounds)", mode, manyRounds, fewRounds)
		}
		if many > few {
			t.Fatalf("%v: allocations grew with iteration count: %v at %d rounds vs %v at %d", mode, few, fewRounds, many, manyRounds)
		}
	}
}

// TestMembersAllMatchesMembers: membersAll's one-pass inverse equals a
// brute-force scan of the assignments per cluster.
func TestMembersAllMatchesMembers(t *testing.T) {
	src := simrand.New(9)
	points := threeBlobs(20, src)
	res, err := KMeans(points, 4, UniformSeeder{}, Options{MaxIterations: 20}, src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	all := membersAll(res.Assignments, res.K())
	if len(all) != res.K() {
		t.Fatalf("membersAll returned %d clusters, want %d", len(all), res.K())
	}
	for c := 0; c < res.K(); c++ {
		var want []int
		for i, a := range res.Assignments {
			if a == c {
				want = append(want, i)
			}
		}
		if !slices.Equal(all[c], want) {
			t.Fatalf("cluster %d: membersAll %v, brute force %v", c, all[c], want)
		}
	}
}
