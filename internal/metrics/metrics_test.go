package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edgecachegroups/internal/topology"
)

// lineNetwork builds o -1- c0 -1- c1 -1- c2 so Dist(ci,cj) = |i-j|.
func lineNetwork(t *testing.T) *topology.Network {
	t.Helper()
	g := topology.NewGraph()
	o := g.AddNode(topology.KindStub, 0)
	prev := o
	var caches []topology.NodeID
	for i := 0; i < 3; i++ {
		n := g.AddNode(topology.KindStub, 0)
		if err := g.AddEdge(prev, n, 1); err != nil {
			t.Fatal(err)
		}
		caches = append(caches, n)
		prev = n
	}
	nw, err := topology.NewNetworkAt(g, o, caches)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestGroupInteractionCost(t *testing.T) {
	nw := lineNetwork(t)
	tests := []struct {
		name    string
		members []topology.CacheIndex
		want    float64
	}{
		{name: "empty", members: nil, want: 0},
		{name: "singleton", members: []topology.CacheIndex{1}, want: 0},
		{name: "pair", members: []topology.CacheIndex{0, 1}, want: 1},
		{name: "far pair", members: []topology.CacheIndex{0, 2}, want: 2},
		// pairs (0,1)=1, (0,2)=2, (1,2)=1 -> mean 4/3
		{name: "triple", members: []topology.CacheIndex{0, 1, 2}, want: 4.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := GroupInteractionCost(nw, tt.members)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("GICost = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAvgGroupInteractionCost(t *testing.T) {
	nw := lineNetwork(t)
	groups := [][]topology.CacheIndex{
		{0, 1},    // cost 1
		{2},       // singleton: cost 0, counted
		nil,       // empty: skipped
		{0, 1, 2}, // cost 4/3
	}
	got := AvgGroupInteractionCost(nw, groups)
	want := (1 + 0 + 4.0/3) / 3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("AvgGICost = %v, want %v", got, want)
	}
	if AvgGroupInteractionCost(nw, nil) != 0 {
		t.Fatal("no groups should cost 0")
	}
}

func TestLatencyStatsBasics(t *testing.T) {
	var s LatencyStats
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("zero-value stats not zeroed")
	}
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 25 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 40 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 20 {
		t.Fatalf("P50 = %v, want 20", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("P100 = %v, want 40", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("P0 = %v, want 10", got)
	}
}

func TestLatencyStatsIgnoresInvalid(t *testing.T) {
	var s LatencyStats
	s.Add(-5)
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	if s.Count() != 0 {
		t.Fatalf("invalid samples recorded: count=%d", s.Count())
	}
}

func TestLatencyStatsAddAfterPercentile(t *testing.T) {
	var s LatencyStats
	s.Add(30)
	s.Add(10)
	_ = s.Percentile(50) // forces sort
	s.Add(20)
	if got := s.Percentile(50); got != 20 {
		t.Fatalf("P50 after re-add = %v, want 20", got)
	}
}

// TestLatencyStatsGrow checks that Grow(n) makes room for n samples: the
// Adds that follow allocate nothing and keep every sample.
func TestLatencyStatsGrow(t *testing.T) {
	var s LatencyStats
	s.Add(1)
	const n = 1000
	s.Grow(n)
	v := 0.0
	if allocs := testing.AllocsPerRun(n-1, func() { v++; s.Add(v) }); allocs != 0 {
		t.Fatalf("Add after Grow averaged %v allocs, want 0", allocs)
	}
	if s.Count() != n+1 || s.Min() != 1 || s.Max() != n {
		t.Fatalf("count=%d min=%v max=%v, want %d samples in [1,%d]", s.Count(), s.Min(), s.Max(), n+1, n)
	}
}

func TestLatencyStatsMerge(t *testing.T) {
	var a, b LatencyStats
	a.Add(1)
	a.Add(3)
	b.Add(5)
	a.Merge(&b)
	if a.Count() != 3 || a.Mean() != 3 {
		t.Fatalf("merged: count=%d mean=%v", a.Count(), a.Mean())
	}
}

// TestLatencyStatsMergeOrderStability is the regression test for a
// determinism bug: Percentile used to sort samples in place, so querying
// a stats object reordered its sample log and changed the float-addition
// order — and therefore the low bits of Sum — of every subsequent Merge
// out of it. The sample set {1e16, 1, 1} makes the two orders bitwise
// distinguishable: 1e16+1+1 == 1e16 while 1+1+1e16 == 1e16+2.
func TestLatencyStatsMergeOrderStability(t *testing.T) {
	samples := []float64{1e16, 1, 1}
	build := func() *LatencyStats {
		var s LatencyStats
		for _, v := range samples {
			s.Add(v)
		}
		return &s
	}

	pristine := build()
	var want LatencyStats
	want.Merge(pristine)

	queried := build()
	_ = queried.Percentile(50) // read-only query must not reorder samples
	_ = queried.String()
	var got LatencyStats
	got.Merge(queried)

	if math.Float64bits(got.Sum()) != math.Float64bits(want.Sum()) {
		t.Fatalf("Percentile query changed merge order: sum %v (%016x) != %v (%016x)",
			got.Sum(), math.Float64bits(got.Sum()), want.Sum(), math.Float64bits(want.Sum()))
	}
	if got.Count() != want.Count() {
		t.Fatalf("merged counts differ: %d != %d", got.Count(), want.Count())
	}
	// The query results themselves must stay correct afterwards.
	if p := queried.Percentile(50); p != 1 {
		t.Fatalf("P50 after merge = %v, want 1", p)
	}
}

func TestLatencyStatsString(t *testing.T) {
	var s LatencyStats
	s.Add(10)
	out := s.String()
	if !strings.Contains(out, "n=1") || !strings.Contains(out, "mean=10.00ms") {
		t.Fatalf("String() = %q", out)
	}
}

func TestLatencyStatsPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s LatencyStats
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Bound magnitudes so the sum cannot overflow.
			s.Add(math.Abs(math.Mod(v, 1e6)))
		}
		if s.Count() == 0 {
			return true
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
