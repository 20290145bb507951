package topology

import (
	"container/heap"
	"fmt"
	"math"
)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// distHeap is a min-heap of pqItems keyed by dist.
type distHeap []pqItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// ShortestPaths computes single-source shortest-path distances from src to
// every node using Dijkstra's algorithm. Unreachable nodes get +Inf.
func (g *Graph) ShortestPaths(src NodeID) ([]float64, error) {
	return g.dijkstra(src, nil)
}

// dijkstra is the one Dijkstra loop behind ShortestPaths and
// ShortestPathTree. It returns the distances from src; a non-nil prev
// (one entry per node) also receives each node's predecessor on its
// shortest path, -1 for src and unreachable nodes.
func (g *Graph) dijkstra(src NodeID, prev []NodeID) ([]float64, error) {
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

	h := make(distHeap, 0, n)
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

// ShortestPathsMulti computes shortest-path distances from each source in
// srcs. The result is indexed result[i][node] for srcs[i].
func (g *Graph) ShortestPathsMulti(srcs []NodeID) ([][]float64, error) {
	out := make([][]float64, len(srcs))
	for i, s := range srcs {
		d, err := g.ShortestPaths(s)
		if err != nil {
			return nil, fmt.Errorf("source %d (%d): %w", i, s, err)
		}
		out[i] = d
	}
	return out, nil
}

// Eccentricity returns the maximum finite shortest-path distance from src.
// It returns an error if any node is unreachable from src.
func (g *Graph) Eccentricity(src NodeID) (float64, error) {
	dist, err := g.ShortestPaths(src)
	if err != nil {
		return 0, err
	}
	var ecc float64
	for i, d := range dist {
		if math.IsInf(d, 1) {
			return 0, fmt.Errorf("node %d unreachable from %d: %w", i, src, ErrDisconnected)
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}
