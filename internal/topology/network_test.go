package topology

import (
	"runtime"
	"testing"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateTransitStub(DefaultTransitStubParams(), simrand.New(100))
	if err != nil {
		t.Fatalf("generate topology: %v", err)
	}
	return g
}

func TestNewNetworkPlacement(t *testing.T) {
	g := testGraph(t)
	nw, err := NewNetwork(g, PlaceParams{NumCaches: 50}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumCaches() != 50 {
		t.Fatalf("NumCaches = %d, want 50", nw.NumCaches())
	}
	if nw.Graph() != g {
		t.Fatal("Graph() did not return the underlying graph")
	}

	// All endpoints must be distinct stub nodes.
	seen := map[NodeID]bool{nw.OriginNode(): true}
	for i := 0; i < 50; i++ {
		id, err := nw.CacheNode(CacheIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("endpoint node %d reused", id)
		}
		seen[id] = true
		n, err := g.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Kind != KindStub {
			t.Fatalf("cache %d placed on %v node", i, n.Kind)
		}
	}
	if _, err := nw.CacheNode(CacheIndex(50)); err == nil {
		t.Fatal("out-of-range CacheNode should error")
	}
	if _, err := nw.CacheNode(CacheIndex(-1)); err == nil {
		t.Fatal("negative CacheNode should error")
	}
}

func TestNewNetworkErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := NewNetwork(g, PlaceParams{NumCaches: 0}, simrand.New(1)); err == nil {
		t.Fatal("NumCaches=0 should error")
	}
	if _, err := NewNetwork(g, PlaceParams{NumCaches: 100000}, simrand.New(1)); err == nil {
		t.Fatal("too many caches should error")
	}
}

func TestNetworkDistanceProperties(t *testing.T) {
	g := testGraph(t)
	nw, err := NewNetwork(g, PlaceParams{NumCaches: 30}, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ci := CacheIndex(i)
		if d := nw.Dist(ci, ci); d != 0 {
			t.Fatalf("Dist(%d,%d) = %v, want 0", i, i, d)
		}
		if d := nw.DistToOrigin(ci); d <= 0 {
			t.Fatalf("DistToOrigin(%d) = %v, want > 0", i, d)
		}
		for j := i + 1; j < 30; j++ {
			cj := CacheIndex(j)
			if nw.Dist(ci, cj) != nw.Dist(cj, ci) {
				t.Fatalf("Dist not symmetric for (%d,%d)", i, j)
			}
			if nw.Dist(ci, cj) <= 0 {
				t.Fatalf("Dist(%d,%d) = %v, want > 0 (distinct stubs)", i, j, nw.Dist(ci, cj))
			}
		}
	}
	if nw.MeanPairwiseDist() <= 0 {
		t.Fatal("MeanPairwiseDist should be positive")
	}
}

func TestNewNetworkAt(t *testing.T) {
	// Path graph: o --1-- a --2-- b.
	g := NewGraph()
	o := g.AddNode(KindStub, 0)
	a := g.AddNode(KindStub, 0)
	b := g.AddNode(KindStub, 0)
	if err := g.AddEdge(o, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, 2); err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetworkAt(g, o, []NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.DistToOrigin(0); got != 1 {
		t.Fatalf("DistToOrigin(0) = %v, want 1", got)
	}
	if got := nw.DistToOrigin(1); got != 3 {
		t.Fatalf("DistToOrigin(1) = %v, want 3", got)
	}
	if got := nw.Dist(0, 1); got != 2 {
		t.Fatalf("Dist(0,1) = %v, want 2", got)
	}
	if got := nw.MeanPairwiseDist(); got != 2 {
		t.Fatalf("MeanPairwiseDist = %v, want 2", got)
	}
}

func TestNewNetworkAtErrors(t *testing.T) {
	g := NewGraph()
	o := g.AddNode(KindStub, 0)
	a := g.AddNode(KindStub, 0)
	if err := g.AddEdge(o, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetworkAt(g, o, nil); err == nil {
		t.Fatal("empty caches should error")
	}
	if _, err := NewNetworkAt(g, NodeID(99), []NodeID{a}); err == nil {
		t.Fatal("bad origin should error")
	}
	if _, err := NewNetworkAt(g, o, []NodeID{NodeID(99)}); err == nil {
		t.Fatal("bad cache node should error")
	}
	// Disconnected endpoint.
	iso := g.AddNode(KindStub, 1)
	if _, err := NewNetworkAt(g, o, []NodeID{iso}); err == nil {
		t.Fatal("unreachable cache should error")
	}
}

func TestNearestFarthestCaches(t *testing.T) {
	// Line: o -1- c0 -1- c1 -1- c2.
	g := NewGraph()
	o := g.AddNode(KindStub, 0)
	var caches []NodeID
	prev := o
	for i := 0; i < 3; i++ {
		n := g.AddNode(KindStub, 0)
		if err := g.AddEdge(prev, n, 1); err != nil {
			t.Fatal(err)
		}
		caches = append(caches, n)
		prev = n
	}
	nw, err := NewNetworkAt(g, o, caches)
	if err != nil {
		t.Fatal(err)
	}
	sorted := nw.CachesByOriginDistance()
	want := []CacheIndex{0, 1, 2}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("CachesByOriginDistance = %v, want %v", sorted, want)
		}
	}
	near := nw.NearestCaches(2)
	if len(near) != 2 || near[0] != 0 || near[1] != 1 {
		t.Fatalf("NearestCaches(2) = %v", near)
	}
	far := nw.FarthestCaches(1)
	if len(far) != 1 || far[0] != 2 {
		t.Fatalf("FarthestCaches(1) = %v", far)
	}
	// Oversized k clamps.
	if got := nw.NearestCaches(10); len(got) != 3 {
		t.Fatalf("NearestCaches(10) returned %d caches", len(got))
	}
	if got := nw.FarthestCaches(10); len(got) != 3 {
		t.Fatalf("FarthestCaches(10) returned %d caches", len(got))
	}
}

// TestDistOutOfRangePanics checks that Dist rejects cache indices outside
// [0,N) instead of reading a neighbouring row of the packed triangle.
func TestDistOutOfRangePanics(t *testing.T) {
	g := NewGraph()
	o := g.AddNode(KindStub, 0)
	caches := []NodeID{g.AddNode(KindStub, 0), g.AddNode(KindStub, 0), g.AddNode(KindStub, 0)}
	for _, c := range caches {
		if err := g.AddEdge(o, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	nw, err := NewNetworkAt(g, o, caches)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]CacheIndex{{0, 3}, {3, 0}, {1, 4}, {-1, 2}, {2, -1}, {-2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dist(%d,%d) did not panic", p[0], p[1])
				}
			}()
			nw.Dist(p[0], p[1])
		}()
	}
}

func TestMeanPairwiseDistSingleCache(t *testing.T) {
	g := NewGraph()
	o := g.AddNode(KindStub, 0)
	a := g.AddNode(KindStub, 0)
	if err := g.AddEdge(o, a, 1); err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetworkAt(g, o, []NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.MeanPairwiseDist(); got != 0 {
		t.Fatalf("MeanPairwiseDist with 1 cache = %v, want 0", got)
	}
}

// TestDijkstraAllocationFree pins the RTT build's allocation shape: a warm
// per-worker scratch runs Dijkstra without allocating, and a NewNetworkAt
// build allocates a fixed set of slices plus a few per worker, never per
// endpoint or per heap push, so per-row slices or boxing heap items into
// interfaces cannot come back unnoticed.
func TestDijkstraAllocationFree(t *testing.T) {
	g := testGraph(t)
	var s dijkstraScratch
	// Warm from every source so the heap backing reaches its peak size.
	for src := 0; src < g.NumNodes(); src++ {
		if err := g.dijkstra(NodeID(src), nil, &s); err != nil {
			t.Fatal(err)
		}
	}
	src := NodeID(0)
	if a := testing.AllocsPerRun(20, func() {
		if err := g.dijkstra(src, nil, &s); err != nil {
			t.Fatal(err)
		}
		src = NodeID((int(src) + 37) % g.NumNodes())
	}); a != 0 {
		t.Fatalf("warm dijkstra allocates %v per run, want 0", a)
	}

	// testing.AllocsPerRun pins GOMAXPROCS to 1, so count mallocs by hand
	// to see a four-worker build.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	stubs := g.NodesOfKind(KindStub)
	caches := stubs[1:101]
	n := len(caches) + 1
	workers := par.Workers(n, runtime.GOMAXPROCS(0))
	build := func() {
		if _, err := NewNetworkAt(g, stubs[0], caches); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		build()
	}
	runtime.ReadMemStats(&after)
	// A few slices per build (the triangles, toOrigin, errors, the work
	// channel) and per worker its scratch (dist, done, heap and its
	// growth) plus a goroutine.
	bound := float64(16 + 8*workers)
	if a := float64(after.Mallocs-before.Mallocs) / runs; a > bound {
		t.Fatalf("NewNetworkAt with %d endpoints and %d workers allocates %v per build, want <= %v", n, workers, a, bound)
	}
}

// TestNetworkRetainedBytes pins the RTT store's footprint: a live Network
// of N caches keeps one value per unordered endpoint pair, 8·(N(N-1)/2 + N)
// bytes, plus a fixed slack, and nothing of the transient lower triangle
// the build folds in. A full (N+1)² matrix would keep about twice that.
func TestNetworkRetainedBytes(t *testing.T) {
	g := testGraph(t)
	stubs := g.NodesOfKind(KindStub)
	const nc = 300
	caches := make([]NodeID, nc)
	for i := range caches {
		caches[i] = stubs[(7*i+3)%len(stubs)]
	}
	// Collect twice first: after a single collection, objects kept for one
	// more cycle (sync.Pool's victim cache) were freed inside the
	// measurement and hid about 36 KB of the network.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	nw, err := NewNetworkAt(g, stubs[1], caches)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nw)
	// The slack covers the struct, its 2.4 KB cache list and the page
	// rounding of the large triangle.
	const slack = 8192
	bound := 8*(nc*(nc-1)/2+nc) + slack
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > int64(bound) {
		t.Fatalf("a live %d-cache Network retains %d heap bytes, want <= %d", nc, got, bound)
	}
}
