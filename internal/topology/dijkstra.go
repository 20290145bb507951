package topology

import (
	"fmt"
	"math"
)

// ringSize is the number of buckets in the shortest-path queue's ring, a
// power of two so that a bucket's slot is its index masked by ringSize-1.
const ringSize = 256

// unqueued marks, in bucketScratch.prev, a node that is in no bucket.
const unqueued = -2

// adjacency is a graph's half-edges in compressed sparse row form: node
// u's half-edges are at off[u]..off[u+1]-1 of to and w. An RTT build makes
// one and its workers share it read-only; the Network does not keep it.
//
// inv is 1/Δ, the inverse bucket width of the queue: a distance d lies in
// bucket ⌊d·inv⌋. Δ is half the smallest positive edge weight, raised
// only as far as keeps the heaviest edge within ringSize/2 buckets, so a
// relaxation always lands inside the ring. A graph with no positive
// weight, or weights so small that 1/Δ overflows, gets inv 0: one bucket.
type adjacency struct {
	off []int32
	to  []int32
	w   []float64
	inv float64
}

// adjacency flattens g's adjacency lists, in their order, into CSR form.
func (g *Graph) adjacency() *adjacency {
	a := &adjacency{off: make([]int32, len(g.nodes)+1)}
	a.to = make([]int32, 0, 2*g.edges)
	a.w = make([]float64, 0, 2*g.edges)
	minPos, maxW := math.Inf(1), 0.0
	for u, es := range g.adj {
		for _, e := range es {
			a.to = append(a.to, int32(e.to))
			a.w = append(a.w, e.weight)
			if e.weight > 0 {
				minPos = min(minPos, e.weight)
			}
			maxW = max(maxW, e.weight)
		}
		a.off[u+1] = int32(len(a.to))
	}
	if a.inv = min(2/minPos, ringSize/2/maxW); math.IsInf(a.inv, 1) {
		a.inv = 0
	}
	return a
}

// bucketScratch is one worker's shortest-path state. A worker keeps one
// and reuses it across sources. Each bucket is a doubly linked list of
// nodes through next and prev, with -1 ending a list; prev is unqueued
// for a node in no bucket. A bucket is drained first in, first out, as
// in Bellman-Ford's queue, which bounds how often a bucket being drained
// scans a node again; last in, first out can take exponentially many
// scans. A run ends with every bucket empty and every node unqueued, so
// the next run refills only dist, and a warm scratch runs without
// allocating.
type bucketScratch struct {
	dist       []float64 // distance from the last source, +Inf if unreachable
	next, prev []int32
	head, tail [ringSize]int32
}

// reset sizes the scratch for an n-node graph and sets every distance to
// +Inf.
func (s *bucketScratch) reset(n int) {
	if len(s.dist) != n {
		s.dist = make([]float64, n)
		s.next = make([]int32, n)
		s.prev = make([]int32, n)
		for i := range s.prev {
			s.prev[i] = unqueued
		}
		for b := range s.head {
			s.head[b], s.tail[b] = -1, -1
		}
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
}

// push appends node v to the list of bucket slot b.
func (s *bucketScratch) push(v int32, b int) {
	t := s.tail[b]
	s.prev[v], s.next[v] = t, -1
	if t < 0 {
		s.head[b] = v
	} else {
		s.next[t] = v
	}
	s.tail[b] = v
}

// unlink removes node v from the list of bucket slot b and marks it
// unqueued.
func (s *bucketScratch) unlink(v int32, b int) {
	p, nx := s.prev[v], s.next[v]
	if p < 0 {
		s.head[b] = nx
	} else {
		s.next[p] = nx
	}
	if nx < 0 {
		s.tail[b] = p
	} else {
		s.prev[nx] = p
	}
	s.prev[v] = unqueued
}

// ShortestPaths computes single-source shortest-path distances from src to
// every node. Unreachable nodes get +Inf.
func (g *Graph) ShortestPaths(src NodeID) ([]float64, error) {
	var s bucketScratch
	if err := g.adjacency().shortestPaths(src, &s); err != nil {
		return nil, err
	}
	return s.dist, nil
}

// shortestPaths is the one shortest-path loop, behind ShortestPaths and
// the RTT matrix build. It leaves the distances from src in s.dist.
//
// It is Dial's bucket queue over a ring of ringSize buckets of width Δ
// (see adjacency), which is Δ-stepping once Δ is raised. The cursor
// drains one bucket at a time, including the nodes that relaxations from
// it put back into it: zero-weight edges and edges lighter than Δ do, and
// a node whose distance falls again is scanned again. A run ends when no
// node is queued, so no edge can lower a distance, and every distance is
// the left-to-right floating-point sum of some path's weights. Rounding
// to nearest is monotone and fl(d+w) ≥ d for w ≥ 0, so the least such
// sum over all paths is the fixed point of relaxation whatever the scan
// order: this loop gives Dijkstra's distances bit for bit, and those of
// the container/heap reference in the tests. fl(d·inv) is monotone too,
// so no relaxation lands in a bucket behind the cursor.
func (a *adjacency) shortestPaths(src NodeID, s *bucketScratch) error {
	n := len(a.off) - 1
	if int(src) < 0 || int(src) >= n {
		return fmt.Errorf("topology: source node %d out of range [0,%d)", src, n)
	}
	s.reset(n)
	dist, prev, inv := s.dist, s.prev, a.inv
	dist[src] = 0
	s.push(int32(src), 0)
	for queued, cur := 1, 0; queued > 0; cur++ {
		b := cur & (ringSize - 1)
		for u := s.head[b]; u >= 0; u = s.head[b] {
			s.unlink(u, b)
			queued--
			du := dist[u]
			lo, hi := a.off[u], a.off[u+1]
			w := a.w[lo:hi]
			for i, v := range a.to[lo:hi] {
				nd := du + w[i]
				if !(nd < dist[v]) {
					continue
				}
				k := int(nd*inv) & (ringSize - 1)
				if prev[v] == unqueued {
					queued++
				} else if old := int(dist[v]*inv) & (ringSize - 1); old != k {
					s.unlink(v, old)
				} else {
					dist[v] = nd
					continue
				}
				dist[v] = nd
				s.push(v, k)
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
