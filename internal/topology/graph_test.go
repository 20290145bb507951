package topology

import (
	"errors"
	"math"
	"testing"
)

func TestAddNodeAndLookup(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindTransit, 0)
	b := g.AddNode(KindStub, 3)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	na, err := g.Node(a)
	if err != nil {
		t.Fatal(err)
	}
	if na.Kind != KindTransit || na.Domain != 0 {
		t.Fatalf("node a = %+v", na)
	}
	nb, err := g.Node(b)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Kind != KindStub || nb.Domain != 3 {
		t.Fatalf("node b = %+v", nb)
	}
	if _, err := g.Node(NodeID(2)); err == nil {
		t.Fatal("out-of-range Node lookup should error")
	}
	if _, err := g.Node(NodeID(-1)); err == nil {
		t.Fatal("negative Node lookup should error")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)

	tests := []struct {
		name   string
		a, b   NodeID
		weight float64
	}{
		{name: "self loop", a: a, b: a, weight: 1},
		{name: "unknown node", a: a, b: NodeID(9), weight: 1},
		{name: "zero weight", a: a, b: b, weight: 0},
		{name: "negative weight", a: a, b: b, weight: -1},
		{name: "nan weight", a: a, b: b, weight: math.NaN()},
		{name: "inf weight", a: a, b: b, weight: math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.a, tt.b, tt.weight); err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}

	if err := g.AddEdge(a, b, 5); err != nil {
		t.Fatalf("valid AddEdge failed: %v", err)
	}
	if err := g.AddEdge(b, a, 5); err == nil {
		t.Fatal("duplicate edge (reversed) should error")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestEdgeQueries(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	c := g.AddNode(KindStub, 0)
	if err := g.AddEdge(a, b, 7.5); err != nil {
		t.Fatal(err)
	}

	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(a, c) {
		t.Fatal("HasEdge(a,c) should be false")
	}
	if g.HasEdge(NodeID(-1), a) {
		t.Fatal("HasEdge with bad node should be false")
	}
	w, err := g.EdgeWeight(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if w != 7.5 {
		t.Fatalf("EdgeWeight = %v, want 7.5", w)
	}
	if _, err := g.EdgeWeight(a, c); err == nil {
		t.Fatal("EdgeWeight of missing edge should error")
	}
	if _, err := g.EdgeWeight(NodeID(-1), a); err == nil {
		t.Fatal("EdgeWeight with bad node should error")
	}
	if got := g.Degree(a); got != 1 {
		t.Fatalf("Degree(a) = %d, want 1", got)
	}
	if got := g.Degree(NodeID(99)); got != 0 {
		t.Fatalf("Degree(out of range) = %d, want 0", got)
	}
	nbrs := g.Neighbors(a, nil)
	if len(nbrs) != 1 || nbrs[0] != b {
		t.Fatalf("Neighbors(a) = %v, want [b]", nbrs)
	}
	if got := g.Neighbors(NodeID(99), nil); got != nil {
		t.Fatalf("Neighbors(out of range) = %v, want nil", got)
	}
}

func TestNodesOfKind(t *testing.T) {
	g := NewGraph()
	g.AddNode(KindTransit, 0)
	s1 := g.AddNode(KindStub, 1)
	s2 := g.AddNode(KindStub, 1)
	stubs := g.NodesOfKind(KindStub)
	if len(stubs) != 2 || stubs[0] != s1 || stubs[1] != s2 {
		t.Fatalf("NodesOfKind(stub) = %v", stubs)
	}
}

func TestIsConnected(t *testing.T) {
	g := NewGraph()
	if !g.IsConnected() {
		t.Fatal("empty graph should be connected")
	}
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	if g.IsConnected() {
		t.Fatal("two isolated nodes should not be connected")
	}
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("connected pair reported disconnected")
	}
}

func TestNodeKindString(t *testing.T) {
	if KindTransit.String() != "transit" || KindStub.String() != "stub" {
		t.Fatal("NodeKind String() mismatch")
	}
	if NodeKind(0).String() != "NodeKind(0)" {
		t.Fatalf("unknown kind String() = %q", NodeKind(0).String())
	}
}

func TestShortestPathsLine(t *testing.T) {
	// a --1-- b --2-- c, plus isolated d.
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	c := g.AddNode(KindStub, 0)
	d := g.AddNode(KindStub, 0)
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 2); err != nil {
		t.Fatal(err)
	}

	dist, err := g.ShortestPaths(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
	if !math.IsInf(dist[int(d)], 1) {
		t.Fatalf("unreachable node distance = %v, want +Inf", dist[int(d)])
	}
	for _, bad := range []NodeID{NodeID(99), NodeID(-1)} {
		if _, err := g.ShortestPaths(bad); err == nil {
			t.Fatalf("out-of-range source %d should error", bad)
		}
	}
}

func TestShortestPathsPrefersCheaperRoute(t *testing.T) {
	// Direct edge a-c costs 10, detour a-b-c costs 3.
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	c := g.AddNode(KindStub, 0)
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{a, c, 10}, {a, b, 1}, {b, c, 2}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := g.ShortestPaths(a)
	if err != nil {
		t.Fatal(err)
	}
	if dist[int(c)] != 3 {
		t.Fatalf("dist to c = %v, want 3", dist[int(c)])
	}
}

func TestShortestPathsMulti(t *testing.T) {
	// Rows from several sources are independent: a later source must not
	// overwrite the distances returned for an earlier one.
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	if err := g.AddEdge(a, b, 4); err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 0, 2)
	for _, src := range []NodeID{a, b} {
		row, err := g.ShortestPaths(src)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if rows[0][int(a)] != 0 || rows[0][int(b)] != 4 || rows[1][int(a)] != 4 || rows[1][int(b)] != 0 {
		t.Fatalf("multi-source distances wrong: %v", rows)
	}
	if _, err := g.ShortestPaths(NodeID(50)); err == nil {
		t.Fatal("bad source among several should error")
	}
}

func TestEccentricity(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	c := g.AddNode(KindStub, 0)
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 2); err != nil {
		t.Fatal(err)
	}
	ecc, err := g.Eccentricity(a)
	if err != nil {
		t.Fatal(err)
	}
	if ecc != 3 {
		t.Fatalf("Eccentricity = %v, want 3", ecc)
	}

	g.AddNode(KindStub, 0) // isolated
	if _, err := g.Eccentricity(a); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("expected ErrDisconnected, got %v", err)
	}
}
