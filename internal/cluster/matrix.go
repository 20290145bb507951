package cluster

import "fmt"

// Matrix is a flat, struct-of-arrays feature store: n rows of dim float64
// components in one contiguous backing array. It is the million-cache
// representation of the pipeline's feature set — building features for N
// caches costs O(1) slice allocations (the backing array plus one header
// slice for row views) instead of one scattered heap allocation per cache,
// and the contiguous layout keeps the K-means distance kernel streaming
// through memory instead of chasing pointers.
//
// A Matrix is a value; copying it aliases the backing array. Row returns a
// capacity-clipped view into the backing array, so appending to a row can
// never silently overwrite its neighbor.
type Matrix struct {
	data []float64
	dim  int
}

// NewMatrix returns an n×dim matrix backed by one zeroed allocation.
func NewMatrix(n, dim int) Matrix {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("cluster: invalid matrix shape %d×%d", n, dim))
	}
	return Matrix{data: make([]float64, n*dim), dim: dim}
}

// MatrixFromVectors copies points into a freshly allocated flat matrix.
// It is the one bridge from []Vector input into the package, so it
// rejects what a fixed-width matrix cannot hold: no points, zero-width
// points, or points of differing dimension. Component values are checked
// by the functions the matrix is passed to.
func MatrixFromVectors(points []Vector) (Matrix, error) {
	if len(points) == 0 {
		return Matrix{}, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return Matrix{}, fmt.Errorf("cluster: zero-dimensional points")
	}
	m := NewMatrix(len(points), dim)
	for i, p := range points {
		if len(p) != dim {
			return Matrix{}, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
		copy(m.Row(i), p)
	}
	return m, nil
}

// IsZero reports whether the matrix is the empty zero value.
func (m Matrix) IsZero() bool { return m.data == nil }

// Rows returns the number of rows.
func (m Matrix) Rows() int {
	if m.dim == 0 {
		return 0
	}
	return len(m.data) / m.dim
}

// Dim returns the per-row component count.
func (m Matrix) Dim() int { return m.dim }

// Data returns the flat row-major backing array (row i occupies
// [i*Dim, (i+1)*Dim)). It is the bridge to flat-writing producers like
// gnp.EmbedHostsInto; mutating it mutates the matrix.
func (m Matrix) Data() []float64 { return m.data }

// Row returns row i as a view into the backing array. The view's capacity
// is clipped to the row, so an append reallocates instead of clobbering
// row i+1.
func (m Matrix) Row(i int) Vector {
	lo := i * m.dim
	hi := lo + m.dim
	return m.data[lo:hi:hi]
}

// RowViews returns every row as a Vector view in one allocation (the
// header slice). The views alias the backing array: mutating a view
// mutates the matrix. This is the bridge to the []Vector-shaped plan
// fields (Plan.Features, Plan.Points) — N caches cost one header
// allocation, not N vector allocations.
func (m Matrix) RowViews() []Vector {
	n := m.Rows()
	out := make([]Vector, n)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// validateMatrix checks the matrix is non-empty with finite components.
func validateMatrix(m Matrix) error {
	if m.Rows() == 0 {
		return fmt.Errorf("cluster: no points")
	}
	if m.dim == 0 {
		return fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, x := range m.data {
		if isNaNOrInf(x) {
			return fmt.Errorf("cluster: point %d component %d is %v", i/m.dim, i%m.dim, x)
		}
	}
	return nil
}
