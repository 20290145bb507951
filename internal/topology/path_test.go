package topology

import (
	"errors"
	"math"
	"testing"

	"edgecachegroups/internal/simrand"
)

func TestShortestPathTreeLine(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	c := g.AddNode(KindStub, 0)
	d := g.AddNode(KindStub, 0) // isolated
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 2); err != nil {
		t.Fatal(err)
	}

	tree, err := g.ShortestPathTree(a)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Source() != a {
		t.Fatalf("Source = %d", tree.Source())
	}
	if tree.Dist(c) != 3 {
		t.Fatalf("Dist(c) = %v", tree.Dist(c))
	}
	if !math.IsInf(tree.Dist(d), 1) {
		t.Fatalf("Dist(isolated) = %v", tree.Dist(d))
	}
	if !math.IsInf(tree.Dist(NodeID(99)), 1) {
		t.Fatal("out-of-range Dist should be +Inf")
	}

	path, err := tree.Path(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{a, b, c}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	hops, err := tree.HopCount(c)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 2 {
		t.Fatalf("hops = %d, want 2", hops)
	}

	// Self path.
	self, err := tree.Path(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 || self[0] != a {
		t.Fatalf("self path = %v", self)
	}

	// Errors.
	if _, err := tree.Path(d); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("unreachable path err = %v", err)
	}
	if _, err := tree.Path(NodeID(99)); err == nil {
		t.Fatal("out-of-range path accepted")
	}
	if _, err := g.ShortestPathTree(NodeID(99)); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestPathDistancesMatchDijkstra: the tree's path edge weights must sum to
// the reported distance.
func TestPathDistancesMatchDijkstra(t *testing.T) {
	g, err := GenerateTransitStub(DefaultTransitStubParams(), simrand.New(50))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.ShortestPathTree(0)
	if err != nil {
		t.Fatal(err)
	}
	for dst := 1; dst < g.NumNodes(); dst += 37 {
		path, err := tree.Path(NodeID(dst))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := 0; i+1 < len(path); i++ {
			w, err := g.EdgeWeight(path[i], path[i+1])
			if err != nil {
				t.Fatalf("path uses non-edge (%d,%d): %v", path[i], path[i+1], err)
			}
			sum += w
		}
		if math.Abs(sum-tree.Dist(NodeID(dst))) > 1e-9 {
			t.Fatalf("dst %d: path sum %v != dist %v", dst, sum, tree.Dist(NodeID(dst)))
		}
	}
}

// TestShortestPathTreeMatchesShortestPaths: both entry points run one
// Dijkstra loop, so the tree's distances must equal ShortestPaths' bit for
// bit, from every tested source to every node.
func TestShortestPathTreeMatchesShortestPaths(t *testing.T) {
	ts, err := GenerateTransitStub(DefaultTransitStubParams(), simrand.New(51))
	if err != nil {
		t.Fatal(err)
	}
	wp := DefaultWaxmanParams()
	wp.Nodes = 150
	wax, err := GenerateWaxman(wp, simrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"transit-stub", ts}, {"waxman", wax}} {
		g, n := tc.g, tc.g.NumNodes()
		for _, src := range []NodeID{0, NodeID(n / 3), NodeID(n / 2), NodeID(n - 1)} {
			dist, err := g.ShortestPaths(src)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := g.ShortestPathTree(src)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				if got := tree.Dist(NodeID(v)); got != dist[v] {
					t.Fatalf("%s src %d: tree.Dist(%d) = %v, ShortestPaths = %v", tc.name, src, v, got, dist[v])
				}
			}
		}
	}
}
