package topology

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"testing"

	"edgecachegroups/internal/simrand"
)

// The reference below is the RTT matrix build as it was before the
// bucket queue: Dijkstra through container/heap's interface, one full
// row per source, built serially. FuzzNetworkMatchesReference holds the
// real build to it bit for bit, and ShortestPaths from each endpoint to
// its full row. Distances do not depend on the order in which the queue
// hands out nodes, so a bucket index that lands behind the cursor, a
// lost relaxation or a worker that writes the wrong row cannot hide.

type refItem struct {
	node NodeID
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refShortestPaths(g *Graph, src NodeID) ([]float64, error) {
	n := len(g.nodes)
	if int(src) < 0 || int(src) >= n {
		return nil, fmt.Errorf("topology: source node %d out of range [0,%d)", src, n)
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[int(src)] = 0
	done := make([]bool, n)
	h := make(refHeap, 0, n)
	heap.Push(&h, refItem{node: src, dist: 0})
	for h.Len() > 0 {
		it := heap.Pop(&h).(refItem)
		u := int(it.node)
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			v := int(e.to)
			if nd := it.dist + e.weight; nd < dist[v] {
				dist[v] = nd
				heap.Push(&h, refItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, nil
}

func refBuildNetwork(g *Graph, origin NodeID, caches []NodeID) ([][]float64, error) {
	endpoints := append([]NodeID{origin}, caches...)
	rows := make([][]float64, len(endpoints))
	for i, s := range endpoints {
		d, err := refShortestPaths(g, s)
		if err != nil {
			return nil, fmt.Errorf("compute RTT matrix: source %d (%d): %w", i, s, err)
		}
		rows[i] = d
	}
	n := len(endpoints)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			d := rows[i][int(endpoints[j])]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("endpoint %d unreachable from endpoint %d: %w", j, i, ErrDisconnected)
			}
			dist[i][j] = d
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := (dist[i][j] + dist[j][i]) / 2
			dist[i][j], dist[j][i] = d, d
		}
	}
	return dist, nil
}

// fuzzWeights holds the edge weights a fuzz input can pick: zero, equal
// and repeated values that make distance ties, and decimals whose sums
// round differently by path order. 6.4 is 64 times 0.1, the widest spread
// that keeps the bucket width Δ at half the lightest positive weight, and
// its paths wrap the ring of buckets; 300 forces Δ above half of 0.1, so
// the light edges land back in the bucket being drained.
var fuzzWeights = [...]float64{0, 0.1, 0.2, 0.3, 0.5, 1, 1, 3, 6.4, 300}

// decodeFuzzNetwork turns b into a small graph and endpoint placement:
// b[0] picks 1..12 nodes, b[1] the origin, b[2] 1..6 caches, then one
// byte per cache (co-located caches are allowed), then (u, v, weight)
// triples. Edges are written straight into the adjacency lists, so zero
// weights and parallel edges, which AddEdge rejects, still reach
// Dijkstra; self-loops are skipped. Few edges leave components
// disconnected.
func decodeFuzzNetwork(b []byte) (g *Graph, origin NodeID, caches []NodeID, ok bool) {
	if len(b) < 3 {
		return nil, 0, nil, false
	}
	nv := 1 + int(b[0])%12
	g = NewGraph()
	for i := 0; i < nv; i++ {
		g.AddNode(KindStub, 0)
	}
	origin = NodeID(int(b[1]) % nv)
	nc := 1 + int(b[2])%6
	b = b[3:]
	if len(b) < nc {
		return nil, 0, nil, false
	}
	for _, c := range b[:nc] {
		caches = append(caches, NodeID(int(c)%nv))
	}
	for b = b[nc:]; len(b) >= 3; b = b[3:] {
		u, v := int(b[0])%nv, int(b[1])%nv
		if u == v {
			continue
		}
		w := fuzzWeights[int(b[2])%len(fuzzWeights)]
		g.adj[u] = append(g.adj[u], halfEdge{to: NodeID(v), weight: w})
		g.adj[v] = append(g.adj[v], halfEdge{to: NodeID(u), weight: w})
		g.edges++
	}
	return g, origin, caches, true
}

// checkNetworkMatchesReference checks that NewNetworkAt gives the
// reference build's Dist, DistToOrigin and MeanPairwiseDist bit for bit,
// and Dist(i,i) == +0, or the same error text, with one worker and with
// four, and that ShortestPaths from each endpoint gives the reference's
// distance to every node. Every cache pair is read, so a packed index
// that is off at a row boundary cannot hide.
func checkNetworkMatchesReference(t *testing.T, g *Graph, origin NodeID, caches []NodeID) {
	t.Helper()
	for _, src := range append([]NodeID{origin}, caches...) {
		want, err := refShortestPaths(g, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.ShortestPaths(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("ShortestPaths(%d): node %d at %v, reference %v", src, v, got[v], want[v])
			}
		}
	}
	want, wantErr := refBuildNetwork(g, origin, caches)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		nw, err := NewNetworkAt(g, origin, caches)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("GOMAXPROCS=%d: error %v, reference error %v", procs, err, wantErr)
			}
			continue
		}
		for i := range caches {
			ci := CacheIndex(i)
			if got := nw.DistToOrigin(ci); math.Float64bits(got) != math.Float64bits(want[0][i+1]) {
				t.Fatalf("GOMAXPROCS=%d: DistToOrigin(%d) = %v, reference %v", procs, i, got, want[0][i+1])
			}
			for j := range caches {
				if got := nw.Dist(ci, CacheIndex(j)); math.Float64bits(got) != math.Float64bits(want[i+1][j+1]) {
					t.Fatalf("GOMAXPROCS=%d: Dist(%d,%d) = %v, reference %v", procs, i, j, got, want[i+1][j+1])
				}
			}
			if got := nw.Dist(ci, ci); math.Float64bits(got) != 0 {
				t.Fatalf("GOMAXPROCS=%d: Dist(%d,%d) = %v, want +0", procs, i, i, got)
			}
		}
		if got, ref := nw.MeanPairwiseDist(), refMeanPairwiseDist(want); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("GOMAXPROCS=%d: MeanPairwiseDist = %v, reference %v", procs, got, ref)
		}
	}
}

// refMeanPairwiseDist is MeanPairwiseDist over a reference matrix: the
// cache pairs summed in i<j row order.
func refMeanPairwiseDist(dist [][]float64) float64 {
	n := len(dist) - 1
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			sum += dist[i][j]
		}
	}
	return sum / float64(n*(n-1)/2)
}

// FuzzNetworkMatchesReference runs checkNetworkMatchesReference on small
// byte-encoded graphs.
func FuzzNetworkMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		// One edge.
		{2, 0, 0, 1, 0, 1, 5},
		// A line with equal weights.
		{3, 0, 1, 1, 2, 0, 1, 1, 1, 2, 1},
		// Zero weights and co-located caches.
		{4, 0, 2, 3, 3, 3, 0, 1, 0, 1, 2, 0, 2, 3, 0},
		// A 0.1, 0.2, 0.3 chain, which sums differently in each direction.
		{3, 0, 0, 3, 0, 1, 1, 1, 2, 2, 2, 3, 3},
		// Two components.
		{4, 0, 1, 1, 3, 0, 1, 4, 2, 3, 4},
		// Two equal-key children under a heavier last item: the heap's
		// tie order decided node 5's predecessor, never its distance.
		{5, 0, 0, 5, 0, 1, 1, 0, 2, 4, 0, 3, 4, 0, 4, 5, 2, 5, 3, 3, 5, 3},
		// An equal-weight cycle with parallel edges.
		{4, 4, 3, 0, 1, 2, 3, 0, 1, 5, 0, 1, 6, 1, 2, 5, 2, 3, 5, 3, 0, 5, 2, 3, 0, 4, 0, 7, 4, 2, 7},
		// A zero-weight cycle 3-4-5 and a zero edge 5-1: node 1 is
		// scanned at 0.1+0.2, then lowered to 0.3 through the cycle in
		// the same bucket and scanned again.
		{5, 0, 2, 1, 3, 5, 3, 4, 0, 4, 5, 0, 5, 3, 0, 4, 0, 3, 0, 2, 1, 1, 5, 0, 0, 0, 3, 2, 1, 2, 4, 0, 3},
		// A 300 edge beside 0.1-1 edges, which are lighter than Δ: from
		// node 0 a node is scanned, lowered inside the bucket being
		// drained, and scanned again.
		{6, 0, 2, 1, 2, 3, 0, 0, 2, 2, 4, 3, 4, 1, 2, 0, 6, 9, 0, 2, 2, 3, 1, 2, 3, 6, 3, 1, 0, 5, 6, 3, 1},
		// A line of 6.4 edges after one 0.1 edge: Δ is 0.05, the heaviest
		// edge spans the most buckets the ring allows, and node 11 lies
		// five times round the ring.
		{11, 0, 3, 11, 5, 8, 1, 0, 1, 1, 1, 2, 8, 2, 3, 8, 3, 4, 8, 4, 5, 8, 5, 6, 8, 6, 7, 8, 7, 8, 8, 8, 9, 8, 9, 10, 8, 10, 11, 8},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if g, origin, caches, ok := decodeFuzzNetwork(b); ok {
			checkNetworkMatchesReference(t, g, origin, caches)
		}
	})
}

// TestNetworkMatchesReferenceTransitStub runs the same check on a
// generated transit-stub topology with 150 caches, so the symmetrizing
// fold crosses foldTile boundaries in both directions.
func TestNetworkMatchesReferenceTransitStub(t *testing.T) {
	g := testGraph(t)
	stubs := g.NodesOfKind(KindStub)
	caches := make([]NodeID, 150)
	for i := range caches {
		caches[i] = stubs[(7*i+3)%len(stubs)]
	}
	checkNetworkMatchesReference(t, g, stubs[1], caches)
}

// TestNetworkMatchesReferenceWaxman runs the same check on a generated
// Waxman graph. Its link RTTs run from the 0.5 ms floor to over 100 ms, a
// wider spread than transit-stub's, so the bucket width is raised above
// half the lightest weight and light edges are relaxed inside the bucket
// being drained.
func TestNetworkMatchesReferenceWaxman(t *testing.T) {
	p := DefaultWaxmanParams()
	p.Nodes = 300
	g, err := GenerateWaxman(p, simrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	minW := math.Inf(1)
	for _, es := range g.adj {
		for _, e := range es {
			minW = min(minW, e.weight)
		}
	}
	if inv := g.adjacency().inv; !(inv < 2/minW) {
		t.Fatalf("bucket width 1/%v is half the lightest weight %v; the test needs a wider spread", inv, minW)
	}
	caches := make([]NodeID, 120)
	for i := range caches {
		caches[i] = NodeID((11*i + 5) % p.Nodes)
	}
	checkNetworkMatchesReference(t, g, 7, caches)
}
