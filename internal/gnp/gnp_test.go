package gnp

import (
	"math"
	"testing"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
)

func TestMinimizeQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2)
	}
	best, val, err := Minimize(f, []float64{0, 0}, NMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best[0]-3) > 1e-3 || math.Abs(best[1]+2) > 1e-3 {
		t.Fatalf("minimum at %v, want (3,-2)", best)
	}
	if val > 1e-5 {
		t.Fatalf("objective %v, want ~0", val)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	best, _, err := Minimize(f, []float64{-1.2, 1}, NMOptions{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best[0]-1) > 0.02 || math.Abs(best[1]-1) > 0.02 {
		t.Fatalf("Rosenbrock minimum at %v, want (1,1)", best)
	}
}

// TestMinimizeAllocationsPerCall pins the simplex loop as allocation-free:
// a run of many iterations allocates exactly as much as a run of one. The
// objective is unbounded below, so the simplex keeps expanding and never
// stops early on TolF.
func TestMinimizeAllocationsPerCall(t *testing.T) {
	f := func(x []float64) float64 { return x[0] + 2*x[1] }
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Minimize(f, []float64{0.5, -0.25}, NMOptions{MaxIter: maxIter}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(200); many != one {
		t.Fatalf("Minimize allocates %v times over 200 iterations, %v over 1; want no allocation per iteration", many, one)
	}
}

func TestMinimizeErrors(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, _, err := Minimize(f, nil, NMOptions{}); err == nil {
		t.Fatal("empty start accepted")
	}
	if _, _, err := Minimize(f, []float64{math.NaN()}, NMOptions{}); err == nil {
		t.Fatal("NaN start accepted")
	}
	if _, _, err := Minimize(f, []float64{math.Inf(1)}, NMOptions{}); err == nil {
		t.Fatal("Inf start accepted")
	}
}

func TestMinimizeRespectsMaxIter(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return x[0] * x[0]
	}
	if _, _, err := Minimize(f, []float64{100}, NMOptions{MaxIter: 5}); err != nil {
		t.Fatal(err)
	}
	// dim+1 initial evals plus a handful per iteration.
	if calls > 2+5*4 {
		t.Fatalf("too many objective calls: %d", calls)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Dim: 0}).Validate(); err == nil {
		t.Fatal("Dim=0 accepted")
	}
	if err := (Config{Dim: 3, Sweeps: -1}).Validate(); err == nil {
		t.Fatal("negative sweeps accepted")
	}
}

// planted returns n points in dim-space and their exact distance matrix.
func planted(n, dim int, src *simrand.Source) ([][]float64, [][]float64) {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = src.Uniform(0, 100)
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = dist(pts[i], pts[j])
		}
	}
	return pts, m
}

func TestEmbedLandmarksRecoversEuclideanDistances(t *testing.T) {
	src := simrand.New(1)
	_, m := planted(8, 3, src)
	cfg := Config{Dim: 3, Sweeps: 6}
	coords, err := EmbedLandmarks(m, cfg, src.Split("embed"))
	if err != nil {
		t.Fatal(err)
	}
	errVal, err := EmbeddingError(coords, m)
	if err != nil {
		t.Fatal(err)
	}
	if errVal > 0.02 {
		t.Fatalf("embedding error %v, want < 0.02 for truly Euclidean input", errVal)
	}
}

func TestEmbedLandmarksValidation(t *testing.T) {
	src := simrand.New(2)
	cfg := Config{Dim: 2}
	tests := []struct {
		name string
		m    [][]float64
	}{
		{name: "too small", m: [][]float64{{0}}},
		{name: "ragged", m: [][]float64{{0, 1}, {1}}},
		{name: "negative", m: [][]float64{{0, -1}, {-1, 0}}},
		{name: "nan", m: [][]float64{{0, math.NaN()}, {math.NaN(), 0}}},
		{name: "nonzero diagonal", m: [][]float64{{1, 2}, {2, 0}}},
		{name: "asymmetric", m: [][]float64{{0, 2}, {3, 0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EmbedLandmarks(tt.m, cfg, src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if _, err := EmbedLandmarks([][]float64{{0, 1}, {1, 0}}, Config{Dim: 0}, src); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEmbedHostRecoversPosition(t *testing.T) {
	src := simrand.New(3)
	pts, m := planted(8, 3, src)
	cfg := Config{Dim: 3, Sweeps: 6}
	coords, err := EmbedLandmarks(m, cfg, src.Split("lm"))
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize a host at a known point; measure to landmarks exactly.
	host := []float64{40, 55, 20}
	toLm := make([]float64, len(pts))
	for i := range pts {
		toLm[i] = dist(host, pts[i])
	}
	got, err := EmbedHost(coords, toLm, cfg, src.Split("host"))
	if err != nil {
		t.Fatal(err)
	}
	// The embedding is only unique up to isometry, so verify distances to
	// landmarks, not raw coordinates.
	for i := range coords {
		want := toLm[i]
		if want < 1 {
			continue
		}
		gotD := dist(got, coords[i])
		if math.Abs(gotD-want)/want > 0.15 {
			t.Fatalf("host-landmark %d distance %v, want ~%v", i, gotD, want)
		}
	}
}

func TestEmbedHostValidation(t *testing.T) {
	src := simrand.New(4)
	cfg := Config{Dim: 2}
	lms := [][]float64{{0, 0}, {10, 0}}
	if _, err := EmbedHost(nil, nil, cfg, src); err == nil {
		t.Fatal("no landmarks accepted")
	}
	if _, err := EmbedHost(lms, []float64{1}, cfg, src); err == nil {
		t.Fatal("mismatched measurements accepted")
	}
	if _, err := EmbedHost(lms, []float64{1, math.NaN()}, cfg, src); err == nil {
		t.Fatal("NaN measurement accepted")
	}
	if _, err := EmbedHost([][]float64{{0}}, []float64{1}, cfg, src); err == nil {
		t.Fatal("wrong-dim landmark accepted")
	}
	if _, err := EmbedHost(lms, []float64{1, 1}, Config{Dim: -1}, src); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEmbeddingErrorEdgeCases(t *testing.T) {
	if _, err := EmbeddingError([][]float64{{0}}, [][]float64{{0}, {0}}); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
	v, err := EmbeddingError([][]float64{{0}}, [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("single-point embedding error = %v, want 0", v)
	}
}

func TestRelErrClampsTinyDistances(t *testing.T) {
	// A measured distance of 0 must not divide by zero.
	v := relErr(1, 0)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("relErr(1,0) = %v", v)
	}
}

// TestEmbedHostsParallelismInvariant pins the contract the coordinator's
// host fan-out relies on: EmbedHost reads only the landmark coordinates,
// so embedding a batch of hosts on per-host SplitN streams gives
// bit-identical coordinates at every worker count.
func TestEmbedHostsParallelismInvariant(t *testing.T) {
	src := simrand.New(7)
	pts, m := planted(8, 3, src)
	cfg := Config{Dim: 3, Sweeps: 4}
	lmCoords, err := EmbedLandmarks(m, cfg, src.Split("lm"))
	if err != nil {
		t.Fatal(err)
	}
	// Hosts at synthetic positions, measured to the landmarks exactly.
	hostSrc := src.Split("hosts")
	toLm := make([][]float64, 20)
	for h := range toLm {
		host := []float64{hostSrc.Uniform(0, 100), hostSrc.Uniform(0, 100), hostSrc.Uniform(0, 100)}
		toLm[h] = make([]float64, len(pts))
		for i := range pts {
			toLm[h][i] = dist(host, pts[i])
		}
	}
	batch := src.Split("batch")
	var base [][]float64
	for _, workers := range []int{1, 3, 8} {
		got := make([][]float64, len(toLm))
		errs := make([]error, len(toLm))
		par.ForEach(len(toLm), workers, func(i int) {
			got[i], errs[i] = EmbedHost(lmCoords, toLm[i], cfg, batch.SplitN("host", i))
		})
		for h, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: host %d: %v", workers, h, err)
			}
		}
		if base == nil {
			base = got
			continue
		}
		for h := range got {
			for j := range got[h] {
				if got[h][j] != base[h][j] {
					t.Fatalf("workers=%d: host %d coord %d = %v, want %v (bit-identical)", workers, h, j, got[h][j], base[h][j])
				}
			}
		}
	}
}

// TestEmbedHostsValidation covers the per-host inputs the coordinator's
// fan-out hands EmbedHost: a missing stream and a measurement row longer
// than the landmark set.
func TestEmbedHostsValidation(t *testing.T) {
	lm := [][]float64{{0, 0}, {10, 0}}
	cfg := Config{Dim: 2}
	src := simrand.New(1)
	if _, err := EmbedHost(lm, []float64{1, 2}, cfg, nil); err == nil {
		t.Fatal("want error for nil source")
	}
	if _, err := EmbedHost(lm, []float64{1, 2, 3}, cfg, src); err == nil {
		t.Fatal("want error for measurement/landmark count mismatch")
	}
}
