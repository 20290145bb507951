package gnp

import (
	"fmt"
	"math"

	"edgecachegroups/internal/simrand"
)

// Config tunes the GNP embedding.
type Config struct {
	// Dim is the dimensionality of the Euclidean space (GNP commonly uses
	// 5–8). Must be >= 1.
	Dim int
	// Sweeps is the number of coordinate-refinement rounds over the
	// landmark set in phase 1. Zero means the default (4).
	Sweeps int
	// NM tunes the per-node Nelder–Mead minimizations.
	NM NMOptions
}

// DefaultConfig returns the embedding configuration used by the
// experiments (5 dimensions, as in the GNP paper's smaller settings).
func DefaultConfig() Config {
	return Config{Dim: 5, Sweeps: 4}
}

func (c Config) withDefaults() Config {
	if c.Sweeps <= 0 {
		c.Sweeps = 4
	}
	return c
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("gnp: Dim must be >= 1, got %d", c.Dim)
	}
	if c.Sweeps < 0 {
		return fmt.Errorf("gnp: Sweeps must be >= 0, got %d", c.Sweeps)
	}
	return nil
}

// relErr is the GNP objective term for one pair: squared relative error of
// the embedded distance against the measurement. Measured distances below
// epsMS are clamped to avoid division blow-ups between co-located nodes.
const epsMS = 0.5

func relErr(embedded, measured float64) float64 {
	m := measured
	if m < epsMS {
		m = epsMS
	}
	e := (embedded - measured) / m
	return e * e
}

func dist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// objective is the shared GNP distance kernel: the squared-relative-error
// sum of a candidate point against the measured distances to a set of
// reference coordinates. The epsMS clamp and its division are hoisted out
// of the simplex loop by precomputing the inverse clamped measurements
// once per node, so each evaluation is one sqrt and one multiply per
// reference.
type objective struct {
	refs    [][]float64
	meas    []float64
	invMeas []float64
	skip    int // reference index excluded from the sum; -1 for none
}

// newObjective builds the kernel for one node. refs is aliased, not
// copied, so phase-1 callers see coordinate updates between minimizations.
func newObjective(refs [][]float64, meas []float64, skip int) *objective {
	inv := make([]float64, len(meas))
	for j, m := range meas {
		if m < epsMS {
			m = epsMS
		}
		inv[j] = 1 / m
	}
	return &objective{refs: refs, meas: meas, invMeas: inv, skip: skip}
}

func (o *objective) eval(x []float64) float64 {
	var sum float64
	for j, c := range o.refs {
		if j == o.skip {
			continue
		}
		e := (dist(x, c) - o.meas[j]) * o.invMeas[j]
		sum += e * e
	}
	return sum
}

// EmbedLandmarks computes phase-1 GNP coordinates for the landmark set from
// its measured pairwise RTT matrix. The matrix must be square and
// symmetric with a zero diagonal. Coordinates are refined per-landmark with
// Nelder–Mead over cfg.Sweeps rounds, which scales to large landmark sets
// where a single joint minimization would not.
func EmbedLandmarks(measured [][]float64, cfg Config, src *simrand.Source) ([][]float64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(measured)
	if n < 2 {
		return nil, fmt.Errorf("gnp: need >= 2 landmarks, got %d", n)
	}
	var maxD float64
	for i, row := range measured {
		if len(row) != n {
			return nil, fmt.Errorf("gnp: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, d := range row {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("gnp: invalid distance %v at (%d,%d)", d, i, j)
			}
			if i == j && d != 0 {
				return nil, fmt.Errorf("gnp: non-zero diagonal %v at %d", d, i)
			}
			if math.Abs(d-measured[j][i]) > 1e-9 {
				return nil, fmt.Errorf("gnp: matrix not symmetric at (%d,%d)", i, j)
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		maxD = 1
	}

	// Random initialization inside a box scaled to the measured diameter.
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = make([]float64, cfg.Dim)
		for j := range coords[i] {
			coords[i][j] = src.Uniform(0, maxD)
		}
	}

	// One kernel per landmark, built once: the inverse clamped measurements
	// never change across sweeps, and refs aliases coords so each
	// minimization sees the latest coordinates of the other landmarks.
	objs := make([]*objective, n)
	for i := range objs {
		objs[i] = newObjective(coords, measured[i], i)
	}
	step := maxD / 4
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		for i := 0; i < n; i++ {
			nm := cfg.NM
			if nm.InitStep == 0 {
				nm.InitStep = step
			}
			best, _, err := Minimize(objs[i].eval, coords[i], nm)
			if err != nil {
				return nil, fmt.Errorf("refine landmark %d: %w", i, err)
			}
			coords[i] = best
		}
		step /= 2
		if step < epsMS {
			step = epsMS
		}
	}
	return coords, nil
}

// EmbedHost computes phase-2 GNP coordinates for a host from its measured
// RTTs to the already-embedded landmarks.
func EmbedHost(landmarks [][]float64, toLandmarks []float64, cfg Config, src *simrand.Source) ([]float64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("gnp: nil random source")
	}
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("gnp: no landmark coordinates")
	}
	if len(toLandmarks) != len(landmarks) {
		return nil, fmt.Errorf("gnp: %d measurements for %d landmarks", len(toLandmarks), len(landmarks))
	}
	var maxD float64
	for i, c := range landmarks {
		if len(c) != cfg.Dim {
			return nil, fmt.Errorf("gnp: landmark %d has dim %d, want %d", i, len(c), cfg.Dim)
		}
		d := toLandmarks[i]
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("gnp: invalid measurement %v to landmark %d", d, i)
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		maxD = 1
	}

	obj := newObjective(landmarks, toLandmarks, -1)

	// Multi-start: the nearest landmark's coordinates plus one random
	// start; keep the better minimum.
	nearest := 0
	for j := range toLandmarks {
		if toLandmarks[j] < toLandmarks[nearest] {
			nearest = j
		}
	}
	start1 := make([]float64, cfg.Dim)
	copy(start1, landmarks[nearest])
	start2 := make([]float64, cfg.Dim)
	for j := range start2 {
		start2[j] = src.Uniform(0, maxD)
	}

	nm := cfg.NM
	if nm.InitStep == 0 {
		nm.InitStep = maxD / 4
	}
	best1, f1, err := Minimize(obj.eval, start1, nm)
	if err != nil {
		return nil, fmt.Errorf("embed host (start 1): %w", err)
	}
	best2, f2, err := Minimize(obj.eval, start2, nm)
	if err != nil {
		return nil, fmt.Errorf("embed host (start 2): %w", err)
	}
	if f2 < f1 {
		return best2, nil
	}
	return best1, nil
}

// EmbeddingError returns the mean squared relative error of an embedding
// against a measured matrix — a quality diagnostic.
func EmbeddingError(coords [][]float64, measured [][]float64) (float64, error) {
	n := len(coords)
	if len(measured) != n {
		return 0, fmt.Errorf("gnp: %d coords vs %d measurement rows", n, len(measured))
	}
	if n < 2 {
		return 0, nil
	}
	var sum float64
	var count int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += relErr(dist(coords[i], coords[j]), measured[i][j])
			count++
		}
	}
	return sum / float64(count), nil
}
