package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceDiffDraws is how many operations each differential case performs:
// more than rngLen, so every case runs past the lazily materialized
// prefix of the register into the plain lagged-Fibonacci regime.
const sourceDiffDraws = 1300

// differentialSeeds returns the seeds the differential test covers: the
// stdlib's seed-normalization edge cases (0 and its 89482311 remap, ±1,
// multiples of 2³¹−1 and their neighbours, the int64 extremes) plus 1,000
// childSeed-derived seeds shaped like the per-pair probe labels.
func differentialSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, k := range []int64{-3, -2, -1, 1, 2, 3, 1 << 20, -(1 << 20)} {
		for _, d := range []int64{-2, -1, 0, 1, 2} {
			seeds = append(seeds, k*int32max+d)
		}
	}
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, childSeed(int64(i%7), fmt.Sprintf("pair/ec%d/os", i)))
	}
	return seeds
}

// compareStreams drives got and want through the same sequence of every
// rand.Rand method the repository uses and fails on the first divergence.
func compareStreams(t *testing.T, name string, got, want *rand.Rand, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		var g, w any
		switch i % 8 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 2:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 3:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 4:
			// Small bounds take the Int31n path, large ones Int63n.
			n := i%1000 + 1
			if i%16 == 4 {
				n = 1<<40 + i
			}
			g, w = got.Intn(n), want.Intn(n)
		case 5:
			g, w = fmt.Sprint(got.Perm(i%9)), fmt.Sprint(want.Perm(i%9))
		case 6:
			gs, ws := shuffled(got, i%11), shuffled(want, i%11)
			if !slices.Equal(gs, ws) {
				t.Fatalf("%s: op %d (Shuffle): %v, stdlib %v", name, i, gs, ws)
			}
			continue
		case 7:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("%s: op %d: %v, stdlib %v", name, i, g, w)
		}
	}
}

func shuffled(r *rand.Rand, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	r.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func stdlib(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestSourceMatchesStdlib is the differential guard of the O(1)-seed
// source: New, Split, SplitInto and Reseed (after partial use) must all
// yield exactly the stream rand.NewSource would for the same seed.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := differentialSeeds()
	reused := New(12345)
	for i, seed := range seeds {
		compareStreams(t, fmt.Sprintf("New(%d)", seed), New(seed).rng, stdlib(seed), sourceDiffDraws)

		// Reseed after a partial draw of a different length each time, so
		// the register is left in every lazy/materialized state.
		for j := 0; j < i%700; j++ {
			reused.Int63()
		}
		reused.Reseed(seed)
		compareStreams(t, fmt.Sprintf("Reseed(%d)", seed), reused.rng, stdlib(seed), sourceDiffDraws)
	}

	parent := New(2006)
	child := New(0)
	for i := 0; i < 200; i++ {
		label := fmt.Sprintf("pair/ec%d/ec%d", i, i+1)
		want := childSeed(parent.Seed(), label)
		compareStreams(t, "Split("+label+")", parent.Split(label).rng, stdlib(want), sourceDiffDraws)
		for j := 0; j < i*3; j++ {
			child.Float64()
		}
		parent.SplitInto(child, []byte(label))
		if child.Seed() != want {
			t.Fatalf("SplitInto(%s): seed %d, want %d", label, child.Seed(), want)
		}
		compareStreams(t, "SplitInto("+label+")", child.rng, stdlib(want), sourceDiffDraws)
	}
}

// FuzzSourceMatchesStdlib checks the stdlib equivalence for arbitrary
// seeds and stream lengths, including a Reseed after partial use.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		s := New(seed)
		compareStreams(t, fmt.Sprintf("New(%d)", seed), s.rng, stdlib(seed), int(draws))
		next := seed ^ int64(draws)<<17
		s.Reseed(next)
		compareStreams(t, fmt.Sprintf("Reseed(%d)", next), s.rng, stdlib(next), int(draws))
	})
}

var reseedSink float64

// BenchmarkSimrandReseed measures one per-pair stream as the prober uses
// it — a reseed plus 10 NormFloat64 draws — for this package's O(1)-seed
// source against the stdlib source whose stream it reproduces.
func BenchmarkSimrandReseed(b *testing.B) {
	run := func(b *testing.B, r *rand.Rand) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 10; j++ {
				reseedSink += r.NormFloat64()
			}
		}
	}
	b.Run("simrand", func(b *testing.B) { run(b, New(0).rng) })
	b.Run("stdlib", func(b *testing.B) { run(b, stdlib(0)) })
}
