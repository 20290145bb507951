package cluster

import (
	"math"
	"testing"

	"edgecachegroups/internal/simrand"
)

// mustMatrix copies test fixtures into a Matrix, failing the test on
// input MatrixFromVectors rejects.
func mustMatrix(tb testing.TB, points []Vector) Matrix {
	tb.Helper()
	m, err := MatrixFromVectors(points)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestMatrixRoundTrip(t *testing.T) {
	points := []Vector{{1, 2}, {3, 4}, {5, 6}}
	m := mustMatrix(t, points)
	if m.Rows() != 3 || m.Dim() != 2 {
		t.Fatalf("shape = %d×%d, want 3×2", m.Rows(), m.Dim())
	}
	views := m.RowViews()
	for i, p := range points {
		for j := range p {
			if m.Row(i)[j] != p[j] || views[i][j] != p[j] {
				t.Fatalf("row %d component %d mismatch", i, j)
			}
		}
	}
	// MatrixFromVectors copies: mutating the source must not leak in.
	points[0][0] = 99
	if m.Row(0)[0] != 1 {
		t.Fatal("MatrixFromVectors aliases its input")
	}
	// Row views alias the backing array.
	views[1][0] = 42
	if m.Row(1)[0] != 42 {
		t.Fatal("RowViews does not alias the backing array")
	}
}

func TestMatrixRowCapClipped(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Row(1), []float64{7, 8, 9})
	row0 := m.Row(0)
	if cap(row0) != 3 {
		t.Fatalf("row cap = %d, want 3", cap(row0))
	}
	// Appending to a row view must reallocate, never clobber row 1.
	grown := append(row0, 999)
	_ = grown
	if m.Row(1)[0] != 7 {
		t.Fatal("append to a row view clobbered the next row")
	}
}

func TestMatrixZeroValue(t *testing.T) {
	var m Matrix
	if !m.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	if m.Rows() != 0 {
		t.Fatalf("zero value Rows = %d", m.Rows())
	}
	if err := validateMatrix(m); err == nil {
		t.Fatal("validateMatrix accepted the zero value")
	}
	if _, err := MatrixFromVectors(nil); err == nil {
		t.Fatal("MatrixFromVectors accepted no points")
	}
}

func TestMatrixValidateRejectsNonFinite(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[1] = math.NaN()
	if err := validateMatrix(m); err == nil {
		t.Fatal("validateMatrix accepted NaN")
	}
	m.Row(1)[1] = math.Inf(1)
	if err := validateMatrix(m); err == nil {
		t.Fatal("validateMatrix accepted +Inf")
	}
	m.Row(1)[1] = 0
	if err := validateMatrix(m); err != nil {
		t.Fatalf("validateMatrix rejected finite matrix: %v", err)
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(1, 0) did not panic")
		}
	}()
	NewMatrix(1, 0)
}

// fuzzComponent decodes one fuzz byte into a feature component: the top
// three values are NaN, +Inf and -Inf, everything else a small integer.
func fuzzComponent(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	}
	return float64(b)
}

// FuzzMatrixFromVectors drives arbitrary point sets through the []Vector
// bridge and on into the clustering functions the ecg facade calls with
// its result. widths gives each point's dimension (one byte per point,
// mod 4, so zero-width points occur); values supplies the components
// cyclically through fuzzComponent. MatrixFromVectors must reject exactly
// the empty, zero-width and ragged sets; the clustering functions must
// reject exactly the sets with a NaN or Inf component; nothing may panic.
func FuzzMatrixFromVectors(f *testing.F) {
	f.Fuzz(func(t *testing.T, widths, values []byte) {
		if len(widths) > 32 {
			widths = widths[:32]
		}
		points := make([]Vector, len(widths))
		shapeOK, finite := len(points) > 0, true
		next := 0
		for i, w := range widths {
			points[i] = make(Vector, w%4)
			for j := range points[i] {
				if len(values) > 0 {
					points[i][j] = fuzzComponent(values[next%len(values)])
					next++
				}
				finite = finite && !isNaNOrInf(points[i][j])
			}
			shapeOK = shapeOK && len(points[i]) > 0 && len(points[i]) == len(points[0])
		}

		m, err := MatrixFromVectors(points)
		if (err == nil) != shapeOK {
			t.Fatalf("MatrixFromVectors(%v): err = %v, want error %v", points, err, !shapeOK)
		}
		if err != nil {
			return
		}
		for i, p := range points {
			for j, x := range p {
				if y := m.Row(i)[j]; math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("row %d component %d = %v, want %v", i, j, y, x)
				}
			}
		}

		k := min(2, m.Rows())
		assign := make([]int, m.Rows())
		for i := range assign {
			assign[i] = i % k
		}
		_, errSil := Silhouette(m, assign, k, 2)
		_, _, errSK := SuggestK(m, 3, UniformSeeder{}, DefaultOptions(), simrand.New(1))
		_, errKM := KMeans(points, k, SpreadSeeder{}, DefaultOptions(), simrand.New(2))
		_, errKD := KMedoids(m, k, UniformSeeder{}, DefaultOptions(), simrand.New(3))
		for _, c := range []struct {
			name string
			err  error
		}{{"Silhouette", errSil}, {"SuggestK", errSK}, {"KMeans", errKM}, {"KMedoids", errKD}} {
			if (c.err == nil) != finite {
				t.Fatalf("%s(%v): err = %v, want error %v", c.name, points, c.err, !finite)
			}
		}
	})
}
