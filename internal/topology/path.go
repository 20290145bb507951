package topology

import (
	"fmt"
	"math"
)

// ShortestPathTree holds single-source shortest-path distances plus
// predecessor links, so explicit router-level paths can be extracted
// (traceroute-style diagnostics).
type ShortestPathTree struct {
	src  NodeID
	dist []float64
	prev []NodeID
}

// ShortestPathTree computes the shortest-path tree rooted at src.
func (g *Graph) ShortestPathTree(src NodeID) (*ShortestPathTree, error) {
	prev := make([]NodeID, len(g.nodes))
	var s dijkstraScratch
	if err := g.dijkstra(src, prev, &s); err != nil {
		return nil, err
	}
	return &ShortestPathTree{src: src, dist: s.dist, prev: prev}, nil
}

// Source returns the tree's root.
func (t *ShortestPathTree) Source() NodeID { return t.src }

// Dist returns the distance from the root to node, +Inf if unreachable.
func (t *ShortestPathTree) Dist(node NodeID) float64 {
	if int(node) < 0 || int(node) >= len(t.dist) {
		return math.Inf(1)
	}
	return t.dist[int(node)]
}

// Path returns the router-level path from the root to dst, inclusive of
// both endpoints. It errors when dst is unreachable or out of range.
func (t *ShortestPathTree) Path(dst NodeID) ([]NodeID, error) {
	if int(dst) < 0 || int(dst) >= len(t.dist) {
		return nil, fmt.Errorf("topology: destination %d out of range [0,%d)", dst, len(t.dist))
	}
	if math.IsInf(t.dist[int(dst)], 1) {
		return nil, fmt.Errorf("topology: node %d unreachable from %d: %w", dst, t.src, ErrDisconnected)
	}
	var rev []NodeID
	for cur := dst; ; cur = t.prev[int(cur)] {
		rev = append(rev, cur)
		if cur == t.src {
			break
		}
		if t.prev[int(cur)] == -1 {
			return nil, fmt.Errorf("topology: broken predecessor chain at node %d", cur)
		}
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// HopCount returns the number of links on the root-to-dst path.
func (t *ShortestPathTree) HopCount(dst NodeID) (int, error) {
	p, err := t.Path(dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}
