package landmark

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// disperseInput is one Disperse call decoded from fuzz bytes.
type disperseInput struct {
	n, l     int
	maximize bool
	eligible []bool // nil means every candidate is eligible
	dist     [][]float64
}

// decodeDisperse turns bytes into a small symmetric non-negative matrix
// (values 0..7, so ties are common), an eligibility mask, l and maximize.
// Missing bytes read as zero.
func decodeDisperse(data []byte) disperseInput {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in := disperseInput{n: 1 + int(next()%12), l: 1 + int(next()%14)}
	flags := next()
	in.maximize = flags&1 == 1
	if flags&2 == 0 {
		in.eligible = make([]bool, in.n)
		for i := 1; i < in.n; i++ {
			in.eligible[i] = next()&1 == 1
		}
	}
	in.dist = make([][]float64, in.n)
	for i := range in.dist {
		in.dist[i] = make([]float64, in.n)
	}
	for i := 0; i < in.n; i++ {
		for j := i + 1; j < in.n; j++ {
			v := float64(next() % 8)
			in.dist[i][j], in.dist[j][i] = v, v
		}
	}
	return in
}

func (in disperseInput) isEligible(i int) bool { return in.eligible == nil || in.eligible[i] }

// referenceDisperse recomputes every candidate's minimum distance to the
// chosen set from scratch at each step.
func referenceDisperse(in disperseInput) []int {
	chosen := []int{0}
	for len(chosen) < in.l {
		best, bestD := -1, 0.0
		for i := 1; i < in.n; i++ {
			if !in.isEligible(i) || slices.Contains(chosen, i) {
				continue
			}
			d := math.Inf(1)
			for _, c := range chosen {
				d = math.Min(d, in.dist[i][c])
			}
			if best < 0 || (in.maximize && d > bestD) || (!in.maximize && d < bestD) {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
	}
	return chosen
}

// FuzzDisperse checks the incremental Disperse kernel against the
// from-scratch reference, and its invariants: the origin comes first, no
// index repeats, only eligible candidates are chosen, and the set holds
// min(l, 1+#eligible) candidates. The seed corpus lives in
// testdata/fuzz/FuzzDisperse.
func FuzzDisperse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeDisperse(data)
		var eligible func(int) bool
		if in.eligible != nil {
			eligible = in.isEligible
		}
		got := Disperse(in.n, in.l, func(i, j int) float64 { return in.dist[i][j] }, eligible, in.maximize)
		if want := referenceDisperse(in); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Disperse = %v, reference = %v (input %+v)", got, want, in)
		}
		if len(got) == 0 || got[0] != 0 {
			t.Fatalf("origin not first: %v", got)
		}
		seen := make(map[int]bool, len(got))
		for _, i := range got {
			if seen[i] {
				t.Fatalf("index %d repeats: %v", i, got)
			}
			seen[i] = true
			if i != 0 && !in.isEligible(i) {
				t.Fatalf("ineligible index %d chosen: %v", i, got)
			}
		}
		numEligible := 0
		for i := 1; i < in.n; i++ {
			if in.isEligible(i) {
				numEligible++
			}
		}
		if want := min(in.l, 1+numEligible); len(got) != want {
			t.Fatalf("chose %d candidates, want min(l=%d, 1+%d eligible) = %d", len(got), in.l, numEligible, want)
		}
	})
}
