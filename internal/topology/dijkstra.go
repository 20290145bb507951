package topology

import (
	"fmt"
	"math"
)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// distHeap is a typed binary min-heap of pqItems keyed by dist. push and
// pop take exactly container/heap's sift steps (Push then up; Pop swaps
// the root with the last item, sifts down over the rest and takes the
// last), so items with equal dist leave in the same order as they did
// through container/heap and every distance keeps its bits. The sifts
// move a hole instead of swapping, which visits the same slots.
type distHeap []pqItem

// push adds it and sifts it up.
func (h *distHeap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < s[i].dist) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
}

// pop removes and returns the minimum item. The heap must not be empty.
func (h *distHeap) pop() pqItem {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < last.dist) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = last
	*h = s[:n]
	return top
}

// dijkstraScratch is one Dijkstra run's working state. A worker keeps one
// and reuses it across sources: dijkstra resets it rather than
// reallocating it, so a warm scratch runs without allocating.
type dijkstraScratch struct {
	dist []float64 // distance from the last source, +Inf if unreachable
	done []bool
	heap distHeap
}

// reset sizes the scratch for an n-node graph and clears it.
func (s *dijkstraScratch) reset(n int) {
	if len(s.dist) != n {
		s.dist = make([]float64, n)
		s.done = make([]bool, n)
		s.heap = make(distHeap, 0, n)
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	clear(s.done)
	s.heap = s.heap[:0]
}

// ShortestPaths computes single-source shortest-path distances from src to
// every node using Dijkstra's algorithm. Unreachable nodes get +Inf.
func (g *Graph) ShortestPaths(src NodeID) ([]float64, error) {
	var s dijkstraScratch
	if err := g.dijkstra(src, nil, &s); err != nil {
		return nil, err
	}
	return s.dist, nil
}

// dijkstra is the one Dijkstra loop behind ShortestPaths,
// ShortestPathTree and the RTT matrix build. It leaves the distances from
// src in s.dist; a non-nil prev (one entry per node) also receives each
// node's predecessor on its shortest path, -1 for src and unreachable
// nodes.
func (g *Graph) dijkstra(src NodeID, prev []NodeID, s *dijkstraScratch) error {
	n := len(g.nodes)
	if int(src) < 0 || int(src) >= n {
		return fmt.Errorf("topology: source node %d out of range [0,%d)", src, n)
	}
	s.reset(n)
	for i := range prev {
		prev[i] = -1
	}
	dist, done := s.dist, s.done
	dist[int(src)] = 0

	s.heap.push(pqItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		it := s.heap.pop()
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
				s.heap.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	return nil
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
