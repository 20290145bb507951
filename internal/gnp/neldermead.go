// Package gnp implements Global Network Positioning (Ng & Zhang,
// INFOCOM'02) as the Euclidean-space position-representation baseline of
// the paper's §5.2: nodes are mapped into a D-dimensional Euclidean space
// so that inter-node coordinate distances approximate measured RTTs, by
// minimizing a relative-error objective with the downhill simplex
// (Nelder–Mead) method.
package gnp

import (
	"fmt"
	"math"
	"slices"
)

// NMOptions tunes the Nelder–Mead optimizer.
type NMOptions struct {
	// MaxIter bounds the number of simplex transformations. Zero means the
	// default (400·dim).
	MaxIter int
	// TolF terminates when the simplex function-value spread drops below
	// this. Zero means the default (1e-9).
	TolF float64
	// InitStep is the size of the initial simplex along each axis. Zero
	// means the default (1.0).
	InitStep float64
}

func (o NMOptions) withDefaults(dim int) NMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * dim
	}
	if o.TolF <= 0 {
		o.TolF = 1e-9
	}
	if o.InitStep <= 0 {
		o.InitStep = 1.0
	}
	return o
}

// Minimize runs Nelder–Mead from x0 and returns the best point found and
// its objective value.
func Minimize(f func([]float64) float64, x0 []float64, opts NMOptions) ([]float64, float64, error) {
	dim := len(x0)
	if dim == 0 {
		return nil, 0, fmt.Errorf("gnp: empty starting point")
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("gnp: starting point component %d is %v", i, v)
		}
	}
	opts = opts.withDefaults(dim)

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// Initial simplex: x0 plus one perturbed vertex per axis.
	simplex := make([][]float64, dim+1)
	values := make([]float64, dim+1)
	for i := range simplex {
		v := make([]float64, dim)
		copy(v, x0)
		if i > 0 {
			v[i-1] += opts.InitStep
		}
		simplex[i] = v
		values[i] = f(v)
	}

	// Working vectors are allocated once and reused: the simplex loop runs
	// hundreds of times per minimization, and per-iteration allocation was
	// the dominant cost of the phase-2 embedding. Accepted candidates are
	// copied into the worst vertex instead of swapping slice headers.
	order := make([]int, dim+1)
	centroid := make([]float64, dim)
	refl := make([]float64, dim)
	exp := make([]float64, dim)
	contr := make([]float64, dim)
	// byValue orders vertices by objective value. Only its "< 0" answers
	// steer the sort, and they are exactly values[a] < values[b], so the
	// sort makes the same choices as a sort by that less function.
	byValue := func(a, b int) int {
		switch {
		case values[a] < values[b]:
			return -1
		case values[b] < values[a]:
			return 1
		}
		return 0
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, byValue)
		best, worst, secondWorst := order[0], order[dim], order[dim-1]

		if math.Abs(values[worst]-values[best]) < opts.TolF {
			return simplex[best], values[best], nil
		}

		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for _, idx := range order[:dim] {
			for j, x := range simplex[idx] {
				centroid[j] += x
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}

		// Reflection.
		for j := range refl {
			refl[j] = centroid[j] + alpha*(centroid[j]-simplex[worst][j])
		}
		fRefl := f(refl)

		switch {
		case fRefl < values[best]:
			// Expansion.
			for j := range exp {
				exp[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fExp := f(exp); fExp < fRefl {
				copy(simplex[worst], exp)
				values[worst] = fExp
			} else {
				copy(simplex[worst], refl)
				values[worst] = fRefl
			}
		case fRefl < values[secondWorst]:
			copy(simplex[worst], refl)
			values[worst] = fRefl
		default:
			// Contraction.
			for j := range contr {
				contr[j] = centroid[j] + rho*(simplex[worst][j]-centroid[j])
			}
			if fContr := f(contr); fContr < values[worst] {
				copy(simplex[worst], contr)
				values[worst] = fContr
			} else {
				// Shrink toward the best vertex.
				for _, idx := range order[1:] {
					for j := range simplex[idx] {
						simplex[idx][j] = simplex[best][j] + sigma*(simplex[idx][j]-simplex[best][j])
					}
					values[idx] = f(simplex[idx])
				}
			}
		}
	}

	// Out of iterations: return the current best.
	best := 0
	for i := 1; i < len(values); i++ {
		if values[i] < values[best] {
			best = i
		}
	}
	return simplex[best], values[best], nil
}
