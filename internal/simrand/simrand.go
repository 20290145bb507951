// Package simrand provides deterministic random-number utilities shared by
// the topology generator, workload generator, prober, and clustering code.
//
// Every stochastic component in this repository owns an explicit *Source
// derived from a user-provided seed, so experiments are reproducible
// bit-for-bit. There is no package-level mutable state.
//
// A Source draws from the same stream as rand.New(rand.NewSource(seed)),
// bit for bit, for every seed and every draw count, but seeding it costs
// O(1): the stdlib rebuilds its whole 607-word lagged-Fibonacci register
// on Seed (1,841 Park–Miller steps), while this package's Source64
// records the Park–Miller start value and materializes each register
// entry lazily, on its first read, from a precomputed power table and the
// stdlib's rngCooked seeding table (copied, with its BSD license, from
// $GOROOT/src/math/rand/rng.go). That makes the per-item streams of
// Split/SplitInto cheap enough to derive one per probe pair. The
// equivalence is pinned by a differential test and fuzz target against
// math/rand and by literal checksum goldens at the module root.
package simrand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand and adds
// the distributions used across the simulator. Source is NOT safe for
// concurrent use; derive independent child sources with Split for parallel
// work.
type Source struct {
	rng  *rand.Rand
	seed int64
}

// source must be a Source64: rand.Rand derives Uint64 differently from a
// plain Source, which would break the stdlib-stream guarantee.
var _ rand.Source64 = (*source)(nil)

// New returns a Source seeded with seed. Its stream is that of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Source {
	src := new(source)
	src.Seed(seed)
	return &Source{
		rng:  rand.New(src),
		seed: seed,
	}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child source. The child's stream is a pure
// function of (parent seed, label), so concurrent consumers can be given
// stable, non-overlapping streams regardless of the order in which they are
// created.
//
// The parent's contribution is seed*prime folded with an FNV-1a hash of
// the label. Seed 0 is remapped to the FNV offset basis first: without the
// remap, seed*prime collapses to 0 (the prime is odd, so 0 is the only
// fixed point) and every child of a seed-0 parent would be a function of
// the label alone — the same label tree rooted at seed 0 would collide
// with itself across nominally independent components.
func (s *Source) Split(label string) *Source {
	return New(childSeed(s.seed, label))
}

// SplitInto repositions child at the start of the exact stream that
// s.Split(string(label)) would produce, reusing child's allocations. It
// exists for hot paths (per-pair probe measurement) that derive a child
// stream per item and must not allocate per item. Reseeding is O(1) —
// the child's register is rebuilt lazily as it is drawn from — so a
// stream that is used for only a few draws costs only those draws. It
// only reads s's immutable seed, so concurrent SplitInto calls on a
// shared parent are safe; child itself must be goroutine-private.
func (s *Source) SplitInto(child *Source, label []byte) {
	child.Reseed(childSeed(s.seed, label))
}

// Reseed repositions s at the start of the stream a fresh New(seed) source
// would produce, reusing s's allocations, in O(1) time.
func (s *Source) Reseed(seed int64) {
	s.seed = seed
	s.rng.Seed(seed)
}

// childSeed derives the child seed for Split/SplitInto: the parent's
// contribution is seed*prime folded with an FNV-1a hash of the label (see
// the Split doc comment for the seed-0 remap rationale).
func childSeed[T string | []byte](seed int64, label T) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(seed)
	if h == 0 {
		h = offset64
	}
	// FNV-1a over the label, folded into the parent seed.
	var fh uint64 = offset64
	for i := 0; i < len(label); i++ {
		fh ^= uint64(label[i])
		fh *= prime64
	}
	h = (h * prime64) ^ fh
	return int64(h)
}

// SplitN derives an independent child source labelled by an index.
func (s *Source) SplitN(label string, n int) *Source {
	return s.Split(fmt.Sprintf("%s/%d", label, n))
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Bernoulli returns true with probability p. p <= 0 never draws from the
// stream (and never fires), so a disabled fault knob consumes no
// randomness; p >= 1 always draws and always fires, keeping stream
// consumption a pure function of the call sequence for every p > 0.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	return s.rng.Float64() < p
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform float in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a normally distributed float with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// LogNormal returns a log-normally distributed float where mu and sigma are
// the parameters of the underlying normal distribution.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed float with the given
// rate (events per unit time). It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("simrand: Exponential rate must be > 0")
	}
	return s.rng.ExpFloat64() / rate
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It returns an error if k > n or either argument is negative.
func (s *Source) SampleWithoutReplacement(n, k int) ([]int, error) {
	if n < 0 || k < 0 {
		return nil, errors.New("simrand: negative argument to SampleWithoutReplacement")
	}
	if k > n {
		return nil, fmt.Errorf("simrand: cannot sample %d from %d items", k, n)
	}
	// Partial Fisher-Yates: O(n) space, O(k) swaps.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k], nil
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Weights must be non-negative and
// sum to a positive value.
func (s *Source) WeightedChoice(weights []float64) (int, error) {
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, fmt.Errorf("simrand: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return 0, errors.New("simrand: weights sum to zero")
	}
	target := s.rng.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if target < cum {
			return i, nil
		}
	}
	// Floating-point slack: return the last index with positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, errors.New("simrand: unreachable weighted choice state")
}

// WeightedSampleWithoutReplacement draws k distinct indices with probability
// proportional to the (remaining) weights at each step.
func (s *Source) WeightedSampleWithoutReplacement(weights []float64, k int) ([]int, error) {
	if k > len(weights) {
		return nil, fmt.Errorf("simrand: cannot sample %d from %d weighted items", k, len(weights))
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	out := make([]int, 0, k)
	for len(out) < k {
		i, err := s.WeightedChoice(w)
		if err != nil {
			return nil, fmt.Errorf("weighted sample step %d: %w", len(out), err)
		}
		out = append(out, i)
		w[i] = 0
	}
	return out, nil
}
