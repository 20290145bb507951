package topology

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The reference below is the RTT matrix build as it was before the typed
// heap: Dijkstra through container/heap's interface, one full row per
// source, built serially. FuzzNetworkMatchesReference holds the real
// build to it bit for bit, and each endpoint's shortest-path tree to its
// predecessors. Distances do not depend on the order in which equal
// keys leave the heap, but predecessors do, so a sift step that settles
// a tie differently or a worker that writes the wrong row cannot hide.

type refHeap []pqItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refShortestPaths(g *Graph, src NodeID, prev []NodeID) ([]float64, error) {
	n := len(g.nodes)
	if int(src) < 0 || int(src) >= n {
		return nil, fmt.Errorf("topology: source node %d out of range [0,%d)", src, n)
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i := range prev {
		prev[i] = -1
	}
	dist[int(src)] = 0
	done := make([]bool, n)
	h := make(refHeap, 0, n)
	heap.Push(&h, pqItem{node: src, dist: 0})
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		u := int(it.node)
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			v := int(e.to)
			if nd := it.dist + e.weight; nd < dist[v] {
				dist[v] = nd
				if prev != nil {
					prev[v] = it.node
				}
				heap.Push(&h, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, nil
}

func refBuildNetwork(g *Graph, origin NodeID, caches []NodeID) ([][]float64, error) {
	endpoints := append([]NodeID{origin}, caches...)
	rows := make([][]float64, len(endpoints))
	for i, s := range endpoints {
		d, err := refShortestPaths(g, s, nil)
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
// round differently by path order.
var fuzzWeights = [...]float64{0, 0.1, 0.2, 0.3, 0.5, 1, 1, 3}

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
// four, and that ShortestPathTree from each endpoint gives the
// reference's distances and predecessors. Every cache pair is read, so a
// packed index that is off at a row boundary cannot hide.
func checkNetworkMatchesReference(t *testing.T, g *Graph, origin NodeID, caches []NodeID) {
	t.Helper()
	for _, src := range append([]NodeID{origin}, caches...) {
		prev := make([]NodeID, g.NumNodes())
		dist, err := refShortestPaths(g, src, prev)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := g.ShortestPathTree(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range dist {
			if math.Float64bits(tree.dist[v]) != math.Float64bits(dist[v]) || tree.prev[v] != prev[v] {
				t.Fatalf("tree from %d: node %d at %v via %d, reference %v via %d", src, v, tree.dist[v], tree.prev[v], dist[v], prev[v])
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
		// Two equal-key children under a heavier last item: which one
		// the sift lifts decides node 5's predecessor.
		{5, 0, 0, 5, 0, 1, 1, 0, 2, 4, 0, 3, 4, 0, 4, 5, 2, 5, 3, 3, 5, 3},
		// An equal-weight cycle with parallel edges.
		{4, 4, 3, 0, 1, 2, 3, 0, 1, 5, 0, 1, 6, 1, 2, 5, 2, 3, 5, 3, 0, 5, 2, 3, 0, 4, 0, 7, 4, 2, 7},
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
