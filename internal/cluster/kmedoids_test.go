package cluster

import (
	"testing"
	"testing/quick"

	"edgecachegroups/internal/simrand"
)

func TestKMedoidsRecoversBlobs(t *testing.T) {
	// Voronoi-iteration k-medoids only refines within clusters, so blob
	// recovery needs dispersed seeds (SpreadSeeder); uniform seeding can
	// start two medoids in one blob and stay there.
	src := simrand.New(1)
	points := threeBlobs(20, src)
	res, err := KMedoids(mustMatrix(t, points), 3, SpreadSeeder{}, DefaultOptions(), src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("K-medoids did not converge on separable blobs")
	}
	for b := 0; b < 3; b++ {
		first := res.Assignments[b*20]
		for i := 0; i < 20; i++ {
			if got := res.Assignments[b*20+i]; got != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	if res.Assignments[0] == res.Assignments[20] || res.Assignments[20] == res.Assignments[40] {
		t.Fatal("blobs merged")
	}
}

func TestKMedoidsCentersAreInputPoints(t *testing.T) {
	src := simrand.New(2)
	points := threeBlobs(10, src)
	res, err := KMedoids(mustMatrix(t, points), 3, UniformSeeder{}, DefaultOptions(), src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	for c, center := range res.Centers {
		found := false
		for _, p := range points {
			if L2(center, p) == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("medoid %d (%v) is not an input point", c, center)
		}
	}
}

func TestKMedoidsValidation(t *testing.T) {
	src := simrand.New(3)
	points := mustMatrix(t, []Vector{{1}, {2}})
	tests := []struct {
		name   string
		points Matrix
		k      int
		seeder Seeder
		opts   Options
	}{
		{name: "no points", points: Matrix{}, k: 1, seeder: UniformSeeder{}},
		{name: "k zero", points: points, k: 0, seeder: UniformSeeder{}},
		{name: "k too big", points: points, k: 3, seeder: UniformSeeder{}},
		{name: "nil seeder", points: points, k: 1, seeder: nil},
		{name: "bad opts", points: points, k: 1, seeder: UniformSeeder{}, opts: Options{MaxIterations: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KMedoids(tt.points, tt.k, tt.seeder, tt.opts, src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestKMedoidsRejectsBrokenSeeder(t *testing.T) {
	points := mustMatrix(t, []Vector{{0}, {1}, {2}})
	src := simrand.New(4)
	for _, tt := range []struct {
		name    string
		indices []int
	}{
		{"wrong count", []int{0}},
		{"out of range", []int{0, 9}},
		{"duplicate", []int{1, 1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KMedoids(points, 2, badSeeder{tt.indices}, DefaultOptions(), src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestKMedoidsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := simrand.New(seed)
		n := 15 + src.Intn(30)
		k := 1 + src.Intn(6)
		points := make([]Vector, n)
		for i := range points {
			points[i] = Vector{src.Uniform(0, 100), src.Uniform(0, 100)}
		}
		res, err := KMedoids(mustMatrix(t, points), k, UniformSeeder{}, DefaultOptions(), src.Split("km"))
		if err != nil {
			return false
		}
		if len(res.Assignments) != n {
			return false
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= k {
				return false
			}
		}
		for _, s := range res.Sizes() {
			if s == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKMedoidsWeightedSeeding(t *testing.T) {
	// Two clusters; weights force both initial medoids into the first
	// blob, the update step must still separate reasonably.
	src := simrand.New(5)
	var points []Vector
	for i := 0; i < 10; i++ {
		points = append(points, Vector{src.Normal(0, 1)})
	}
	for i := 0; i < 10; i++ {
		points = append(points, Vector{src.Normal(100, 1)})
	}
	weights := make([]float64, 20)
	for i := range weights {
		weights[i] = 0.0001
	}
	weights[0], weights[1] = 100, 100
	res, err := KMedoids(mustMatrix(t, points), 2, WeightedSeeder{Weights: weights}, DefaultOptions(), src.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	// Both clusters non-empty regardless of bad seeding.
	for c, s := range res.Sizes() {
		if s == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	points := []Vector{{0}, {5}, {10}}
	res, err := KMedoids(mustMatrix(t, points), 3, UniformSeeder{}, DefaultOptions(), simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sizes() {
		if s != 1 {
			t.Fatalf("sizes = %v", res.Sizes())
		}
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	src1 := simrand.New(7)
	p1 := threeBlobs(12, src1)
	r1, err := KMedoids(mustMatrix(t, p1), 3, UniformSeeder{}, DefaultOptions(), src1.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	src2 := simrand.New(7)
	p2 := threeBlobs(12, src2)
	r2, err := KMedoids(mustMatrix(t, p2), 3, UniformSeeder{}, DefaultOptions(), src2.Split("km"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assignments {
		if r1.Assignments[i] != r2.Assignments[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

// TestKMedoidsComparableToKMeans: on well-separated data the two
// algorithms should produce partitions of similar quality.
func TestKMedoidsComparableToKMeans(t *testing.T) {
	src := simrand.New(8)
	points := threeBlobs(25, src)
	m := mustMatrix(t, points)
	km, err := KMeans(points, 3, UniformSeeder{}, DefaultOptions(), src.Split("a"))
	if err != nil {
		t.Fatal(err)
	}
	kd, err := KMedoids(m, 3, UniformSeeder{}, DefaultOptions(), src.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	ssKM := km.WithinClusterSS(m)
	ssKD := kd.WithinClusterSS(m)
	if ssKD > ssKM*1.5 {
		t.Fatalf("k-medoids SS %v much worse than k-means %v", ssKD, ssKM)
	}
}
