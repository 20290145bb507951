package cluster

import "math"

// This file implements the exact bounds-pruned K-means reassignment sweep:
// Yinyang K-means (Ding et al., ICML 2015), which keeps one upper bound per
// point and one lower bound per (point, center group). Pruning must be
// invisible: the contract is that the pruned sweep returns the exact
// assignment the exhaustive sweep would, including the lowest-index winner
// on distance ties, so Plan checksums stay bit-identical.
//
// Center groups
//
// Before the initial assignment the k seed centers are partitioned into
// t = ⌈k/10⌉ groups by a few deterministic Lloyd rounds over the centers
// themselves (formCenterGroups); nothing is drawn from the random source.
// The groups stay fixed for the whole run. Each point keeps
//
//   - upper: an upper bound on its distance to its assigned center a, and
//   - lower[g]: for every group g, a lower bound on its distance to every
//     center of g other than a.
//
// At t = 1 this is Hamerly's single-bound algorithm; at t = k it is
// Elkan's per-center bounds. ⌈k/10⌉ sits between the two: O(n·t) memory
// and O(t) bound upkeep per point and round, yet enough resolution to rule
// out most groups without touching their centers.
//
// Why the pruning is exact
//
// The exhaustive sweep assigns each point to the center with the smallest
// *computed* squared distance, scanning centers in index order with a
// strict less-than (ties keep the lowest index). That winner is the
// lexicographic minimum of (computed sqL2, index) over all k centers. The
// pruned sweep computes the same sqL2 values for the centers it does
// visit and takes the same lexicographic minimum over them; it differs only
// in skipping centers it can prove are not that minimum. It skips a center
// c only when some bound shows c is strictly farther than an already
// computed candidate b (the assigned center, or the best center found so
// far) — an inflated upper bound on dist(p, b) that is strictly below a
// deflated lower bound on dist(p, c). Every stored bound carries a relative
// 2^-40 margin in the safe direction — about a million times larger than
// the relative error of the distance kernel (≲ dim·2^-52) yet a million
// times smaller than anything that matters — so a successful comparison
// implies the true gap between c and b is far larger than any
// computed-value wobble: the computed sqL2 of c is strictly above that of
// b, so c can neither be the minimum nor tie it. Hence the minimum over
// the visited centers is the exhaustive winner.
//
// The filters, in the order a point meets them:
//
//   - Separation: the point keeps its assignment without reading its group
//     bounds when its upper bound is strictly below sep[a] (deflated half
//     the distance from a to its nearest peer center).
//   - Global: likewise when the upper bound is strictly below its smallest
//     group lower bound. Both checks are first tried with the maintained
//     upper bound, then with the exact distance to a.
//   - Group: the remaining groups are visited assigned group first, then
//     in index order. A whole group is skipped when the best candidate's
//     upper bound is strictly below the group's lower bound; otherwise
//     every center of the group is computed.
//
// Ding's third, per-center "local" filter is left out: a center it skips
// leaves the rebuilt group bound looser than its computed distance would.
// Measured at the tracked shapes, it saved about 6% of the distance
// evaluations at 2000×25 (k=80), cost 2% more at 100k×16 (k=64), and
// shortened neither run.
//
// Skipped points keep their assignment — as the exhaustive sweep would
// have — so the per-round moved counts, the ReassignFrac termination, the
// iteration counts, and the final centers are all bit-identical between
// PruneAuto and PruneNone, at every Parallelism setting.
//
// Bound maintenance (per round): each center's drift is the distance it
// moved during recomputation, and a group's drift is the largest drift of
// its centers. A point's upper bound grows by its own center's drift; each
// group lower bound shrinks by the group's drift. A point that passes the
// separation filter does not touch its group bounds: each point stamps
// the round its bounds were last brought up to date, and catchUp applies
// the group drifts of the rounds in between — the same shrinks in the same
// order as a per-round update, so the bounds are bitwise those of the
// eager scheme at a fraction of the memory traffic. A visited group's
// lower bound is rebuilt from the computed distances of its centers other
// than the winner; when the winner moves to another group the former best
// joins its group's bound. Every update inflates upper bounds and deflates
// lower bounds by the 2^-40 margin, keeping them conservative against
// kernel rounding no matter how many rounds accumulate (the margins
// compound in the safe direction — bounds only loosen, which can cost a
// skip but never correctness). Empty-cluster repair rewrites a center
// outside this bookkeeping, so the round after a repair re-derives all
// bounds with an unfiltered sweep.

// boundMargin is the relative safety margin applied to every bound
// update: upper bounds are inflated by (1 + boundMargin), lower bounds
// and separations deflated by (1 - boundMargin). 2^-40 dwarfs the
// distance kernel's relative rounding error (≲ dim·2^-52 for any sane
// dim) while costing essentially no pruning power.
const boundMargin = 0x1p-40

// inflate returns a value certainly >= x's true quantity, given x was
// computed within boundMargin relative error.
func inflate(x float64) float64 { return x * (1 + boundMargin) }

// deflate returns a value certainly <= x's true quantity, given x >= 0
// was computed within boundMargin relative error.
func deflate(x float64) float64 { return x * (1 - boundMargin) }

// shrink lowers the lower bound lb by a drift, clamped at zero and
// deflated.
func shrink(lb, drift float64) float64 {
	l := lb - drift
	if l < 0 {
		l = 0
	}
	return deflate(l)
}

const (
	// centersPerGroup sets the group count t = ⌈k/centersPerGroup⌉.
	centersPerGroup = 10
	// groupRounds is the number of Lloyd rounds that form the groups.
	groupRounds = 5
)

// formCenterGroups partitions the current (seed) centers into at most
// ⌈k/centersPerGroup⌉ groups and allocates the per-(point, group) lower
// bounds and the group drifts of up to maxRounds rounds. It clusters the
// centers themselves with groupRounds Lloyd rounds started from the first
// t centers, then drops groups that ended empty. The grouping affects
// only how much the sweep prunes, never its result, and it is a pure
// function of the seed centers.
func formCenterGroups(sc *kmScratch, maxRounds int) {
	k, dim := sc.k, sc.dim
	t := (k + centersPerGroup - 1) / centersPerGroup
	groupOf := make([]int, k)
	if t > 1 {
		means := make([]float64, t*dim)
		copy(means, sc.centers[:t*dim])
		sums := make([]float64, t*dim)
		counts := make([]int, t)
		for round := 0; round < groupRounds; round++ {
			for c := 0; c < k; c++ {
				row := sc.centerRow(c)
				best, bestSq := 0, sqL2(row, means[:dim])
				for g := 1; g < t; g++ {
					if d := sqL2(row, means[g*dim:(g+1)*dim]); d < bestSq {
						best, bestSq = g, d
					}
				}
				groupOf[c] = best
			}
			clear(sums)
			clear(counts)
			for c, g := range groupOf {
				counts[g]++
				for j, x := range sc.centerRow(c) {
					sums[g*dim+j] += x
				}
			}
			for g, n := range counts {
				if n == 0 {
					continue // an empty group keeps its mean
				}
				inv := 1 / float64(n)
				for j := 0; j < dim; j++ {
					means[g*dim+j] = sums[g*dim+j] * inv
				}
			}
		}
		// Renumber the non-empty groups densely, in group order.
		id := make([]int, t)
		t = 0
		for g, n := range counts {
			if n > 0 {
				id[g] = t
				t++
			}
		}
		for c, g := range groupOf {
			groupOf[c] = id[g]
		}
	}
	// Counting sort: members lists each group's centers in index order.
	start := make([]int, t+1)
	for _, g := range groupOf {
		start[g+1]++
	}
	for g := 0; g < t; g++ {
		start[g+1] += start[g]
	}
	members := make([]int, k)
	next := append([]int(nil), start[:t]...)
	for c, g := range groupOf {
		members[next[g]] = c
		next[g]++
	}
	sc.groups = t
	sc.groupOf = groupOf
	sc.groupStart = start
	sc.members = members
	sc.groupDrift = make([]float64, (maxRounds+1)*t)
	sc.lower = make([]float64, sc.points.Rows()*t)
	sc.stamp = make([]int, sc.points.Rows())
}

// fullScanChunk assigns each point in the chunk to its nearest center by
// scanning all k centers in index order — the exhaustive reassignment body
// of PruneNone, and the reference the pruned sweep is tested against.
func fullScanChunk(sc *kmScratch, assign []int, chunk, lo, hi int) {
	k := sc.k
	moved := 0
	for i := lo; i < hi; i++ {
		p := sc.pointRow(i)
		best := 0
		bestSq := sqL2(p, sc.centerRow(0))
		for c := 1; c < k; c++ {
			if d := sqL2(p, sc.centerRow(c)); d < bestSq {
				best, bestSq = c, d
			}
		}
		if best != assign[i] {
			assign[i] = best
			moved++
		}
	}
	sc.moved[chunk] = moved
	sc.evals[chunk] += int64(hi-lo) * int64(k)
}

// updateDrift records how far each center moved during the last
// recomputation, inflated so the stored drift certainly covers the true
// movement, and each group's largest center drift.
func updateDrift(sc *kmScratch) {
	for c := 0; c < sc.k; c++ {
		sc.drift[c] = inflate(math.Sqrt(sqL2(sc.oldCenterRow(c), sc.centerRow(c))))
	}
	gd := sc.groupDrift[sc.round*sc.groups : (sc.round+1)*sc.groups]
	for g := range gd {
		maxDrift := 0.0
		for _, c := range sc.members[sc.groupStart[g]:sc.groupStart[g+1]] {
			if d := sc.drift[c]; d > maxDrift {
				maxDrift = d
			}
		}
		gd[g] = maxDrift
	}
}

// updateSeparation records, for each center, (deflated) half the distance
// to its nearest other center: any point strictly closer to its center
// than that cannot be closer to any rival.
func updateSeparation(sc *kmScratch) {
	k := sc.k
	for c := 0; c < k; c++ {
		sc.sep[c] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		rowA := sc.centerRow(a)
		for b := a + 1; b < k; b++ {
			h := deflate(0.5 * math.Sqrt(sqL2(rowA, sc.centerRow(b))))
			if h < sc.sep[a] {
				sc.sep[a] = h
			}
			if h < sc.sep[b] {
				sc.sep[b] = h
			}
		}
	}
}

// catchUp brings point i's group lower bounds up to the current round —
// shrinking each by the group drift of every round since they were last
// written, exactly as if it had been updated every round — and returns
// the smallest of them.
func catchUp(sc *kmScratch, lb []float64, i int) float64 {
	t, round := sc.groups, sc.round
	from := sc.stamp[i]
	sc.stamp[i] = round
	least := math.Inf(1)
	for g := range lb {
		l := lb[g]
		for r := from + 1; r <= round; r++ {
			l = shrink(l, sc.groupDrift[r*t+g])
		}
		lb[g] = l
		if l < least {
			least = l
		}
	}
	return least
}

// groupedChunk runs one grouped-bounds reassignment round over a chunk
// (see the file comment for the filters and why they are exact). With
// init set it applies no filter and ignores the stored bounds: it visits
// every center and records fresh bounds, which makes it the bounds
// (re)initialization after seeding and after an empty-cluster repair.
func groupedChunk(sc *kmScratch, assign []int, chunk, lo, hi int, init bool) {
	t := sc.groups
	moved := 0
	var evals int64
	for i := lo; i < hi; i++ {
		p := sc.pointRow(i)
		lb := sc.lower[i*t : (i+1)*t : (i+1)*t]
		// a is the assigned center (-1: none yet, every center is a
		// rival), first the group visited first, and ub the inflated
		// upper bound on the best candidate's distance.
		a, aSq, first, ub := -1, math.Inf(1), 0, math.Inf(1)
		if init {
			// Zero lower bounds disable the group filter.
			clear(lb)
			sc.stamp[i] = sc.round
		} else {
			a = assign[i]
			first = sc.groupOf[a]
			ub = inflate(sc.upper[i] + sc.drift[a])
			bound := sc.sep[a]
			if ub < bound {
				// The group bounds are not read; catchUp applies
				// this round's drifts when they next are.
				sc.upper[i] = ub
				continue
			}
			if l := catchUp(sc, lb, i); l > bound {
				bound = l
			}
			if ub >= bound {
				// Tighten the upper bound with the exact distance.
				aSq = sqL2(p, sc.centerRow(a))
				evals++
				ub = inflate(math.Sqrt(aSq))
			}
			if ub < bound {
				sc.upper[i] = ub
				continue
			}
		}
		best, bestSq, bestG := a, aSq, first
		for j := 0; j < t; j++ {
			// Visit order: first, then the other groups by index.
			g := j
			if j == 0 {
				g = first
			} else if j <= first {
				g = j - 1
			}
			if ub < lb[g] {
				continue // group filter
			}
			gBest, gBestSq, gSecondSq := -1, math.Inf(1), math.Inf(1)
			for _, c := range sc.members[sc.groupStart[g]:sc.groupStart[g+1]] {
				d := aSq
				if c != a {
					d = sqL2(p, sc.centerRow(c))
					evals++
				}
				if gBest < 0 || d < gBestSq {
					gSecondSq = gBestSq
					gBest, gBestSq = c, d
				} else if d < gSecondSq {
					gSecondSq = d
				}
			}
			rivalSq := gBestSq
			if best < 0 || gBest == best || gBestSq < bestSq || (gBestSq == bestSq && gBest < best) {
				if best >= 0 && bestG != g {
					// The former best, in an already visited group,
					// becomes one of that group's rivals.
					if l := deflate(math.Sqrt(bestSq)); l < lb[bestG] {
						lb[bestG] = l
					}
				}
				best, bestSq, bestG = gBest, gBestSq, g
				ub = inflate(math.Sqrt(bestSq))
				rivalSq = gSecondSq
			}
			lb[g] = deflate(math.Sqrt(rivalSq))
		}
		if best != assign[i] {
			assign[i] = best
			moved++
		}
		sc.upper[i] = ub
	}
	sc.moved[chunk] = moved
	sc.evals[chunk] += evals
}
