package workload

// runHead is one item of mergeRuns' heap: the time of a run's first
// unmerged element and the run's index.
type runHead struct {
	t   float64
	run int
}

// before orders heads by time, then by run index, so equal times leave the
// heap in run order.
func (a runHead) before(b runHead) bool {
	return a.t < b.t || (a.t == b.t && a.run < b.run)
}

// mergeRuns merges runs, each already in nondecreasing timeOf order and
// free of NaN times, into one time-ordered slice of exactly their total
// length. Equal times keep run order and, within a run, their order in the
// run, so the result equals slices.SortStableFunc over the concatenation
// of runs with cmp.Compare on timeOf — in O(n log k) for n elements in k
// runs. It returns nil when the runs hold nothing.
func mergeRuns[T any](runs [][]T, timeOf func(T) float64) []T {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	next := make([]int, len(runs))
	heads := make([]runHead, 0, len(runs))
	for i, r := range runs {
		if len(r) > 0 {
			heads = append(heads, runHead{timeOf(r[0]), i})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	for len(heads) > 0 {
		run := heads[0].run
		r, i := runs[run], next[run]
		out = append(out, r[i])
		if i++; i < len(r) {
			next[run] = i
			heads[0].t = timeOf(r[i])
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
	return out
}

// cutRuns splits buf into the runs that end at the given offsets.
func cutRuns[T any](buf []T, ends []int) [][]T {
	runs := make([][]T, len(ends))
	start := 0
	for i, end := range ends {
		runs[i] = buf[start:end]
		start = end
	}
	return runs
}

// siftDown restores the heap order below heads[i]. It walks the hole at i
// down to a leaf along the earlier child, then moves the displaced head up
// from there: a run's next head usually belongs near the bottom, so this
// takes about one comparison per level instead of two.
func siftDown(heads []runHead, i int) {
	if i >= len(heads) {
		return
	}
	top, h := i, heads[i]
	for {
		c := 2*i + 1
		if c >= len(heads) {
			break
		}
		if r := c + 1; r < len(heads) && heads[r].before(heads[c]) {
			c = r
		}
		heads[i] = heads[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !h.before(heads[p]) {
			break
		}
		heads[i] = heads[p]
		i = p
	}
	heads[i] = h
}
