package topology

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
)

// CacheIndex identifies an edge cache within a Network (0..N-1). The origin
// server is addressed separately.
type CacheIndex int

// Network is an edge cache network placed on a topology: one origin server
// and N edge caches attached to distinct stub routers, with the true
// shortest-path RTT between every pair of placed endpoints precomputed.
//
// RTTs are symmetric, so each pair is stored once: toOrigin holds the N
// cache-to-origin RTTs and pairs the N(N-1)/2 cache pairs as a packed
// upper triangle, (N+1)N/2 values in all where a square matrix would
// hold (N+1)².
//
// Network is immutable after construction and safe for concurrent reads.
type Network struct {
	graph  *Graph
	origin NodeID
	caches []NodeID

	// toOrigin[i] is the RTT between cache i and the origin.
	toOrigin []float64
	// pairs holds the RTT between caches i < j at rowStart(N, i)+j-i-1:
	// row i lists caches i+1..N-1, and the rows follow each other.
	pairs []float64
}

// rowStart returns the index in an n-cache packed upper triangle at which
// row i, the pairs (i, j) with j > i, starts: the rows before it hold
// (n-1) + (n-2) + ... + (n-i) = i(2n-i-1)/2 pairs.
func rowStart(n, i int) int { return i * (2*n - i - 1) / 2 }

// PlaceParams configures endpoint placement.
type PlaceParams struct {
	// NumCaches is the number of edge caches to place.
	NumCaches int
}

// NewNetwork places an origin server and params.NumCaches edge caches on
// distinct stub routers of g and precomputes all pairwise RTTs.
func NewNetwork(g *Graph, params PlaceParams, src *simrand.Source) (*Network, error) {
	if params.NumCaches < 1 {
		return nil, fmt.Errorf("topology: NumCaches must be >= 1, got %d", params.NumCaches)
	}
	stubs := g.NodesOfKind(KindStub)
	need := params.NumCaches + 1
	if len(stubs) < need {
		return nil, fmt.Errorf("topology: need %d stub nodes for placement, topology has %d", need, len(stubs))
	}
	picks, err := src.SampleWithoutReplacement(len(stubs), need)
	if err != nil {
		return nil, fmt.Errorf("place endpoints: %w", err)
	}
	origin := stubs[picks[0]]
	caches := make([]NodeID, params.NumCaches)
	for i := 0; i < params.NumCaches; i++ {
		caches[i] = stubs[picks[i+1]]
	}
	return buildNetwork(g, origin, caches)
}

// NewNetworkAt places the endpoints at explicit attachment nodes. All
// attachment nodes must exist; caches need not be distinct from each other
// (co-located caches are legal, e.g. for tests).
func NewNetworkAt(g *Graph, origin NodeID, caches []NodeID) (*Network, error) {
	if len(caches) == 0 {
		return nil, fmt.Errorf("topology: need at least one cache")
	}
	if _, err := g.Node(origin); err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	for i, c := range caches {
		if _, err := g.Node(c); err != nil {
			return nil, fmt.Errorf("cache %d: %w", i, err)
		}
	}
	cp := make([]NodeID, len(caches))
	copy(cp, caches)
	return buildNetwork(g, origin, cp)
}

// buildNetwork runs Dijkstra from every endpoint (index 0 the origin,
// k+1 cache k) and keeps only the endpoint columns of each source's
// distances. Sources are spread over GOMAXPROCS workers, each with its
// own Dijkstra scratch. Source e writes its distances to the endpoints
// after it straight into its row of the packed triangle (toOrigin for the
// origin), and those to the endpoints before it into its row of a
// transient lower triangle; foldPairs then averages the two directions
// and the transient is dropped. Every entry depends on its source alone,
// so the result is the same at any worker count, and the error of the
// lowest failing source wins.
func buildNetwork(g *Graph, origin NodeID, caches []NodeID) (*Network, error) {
	endpoints := make([]NodeID, 0, len(caches)+1)
	endpoints = append(endpoints, origin)
	endpoints = append(endpoints, caches...)

	nc := len(caches)
	n := nc + 1
	toOrigin := make([]float64, nc)
	pairs := make([]float64, nc*(nc-1)/2)
	// Row e of below, at e(e-1)/2, holds source e's distances to the
	// endpoints 0..e-1.
	below := make([]float64, n*(n-1)/2)
	errs := make([]error, n)
	workers := par.Workers(n, runtime.GOMAXPROCS(0))
	scratch := make([]dijkstraScratch, workers)
	par.ForEachWorker(n, workers, func(w, e int) {
		s := &scratch[w]
		if err := g.dijkstra(endpoints[e], nil, s); err != nil {
			errs[e] = fmt.Errorf("compute RTT matrix: source %d (%d): %w", e, endpoints[e], err)
			return
		}
		lo := below[e*(e-1)/2:][:e]
		hi := toOrigin
		if e > 0 {
			hi = pairs[rowStart(nc, e-1):rowStart(nc, e)]
		}
		for f, ep := range endpoints {
			d := s.dist[int(ep)]
			if math.IsInf(d, 1) {
				errs[e] = fmt.Errorf("endpoint %d unreachable from endpoint %d: %w", f, e, ErrDisconnected)
				return
			}
			if f < e {
				lo[f] = d
			} else if f > e {
				hi[f-e-1] = d
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	foldPairs(toOrigin, pairs, below)
	return &Network{graph: g, origin: origin, caches: caches, toOrigin: toOrigin, pairs: pairs}, nil
}

// foldTile is the side of the square tiles foldPairs walks: two 64×64
// blocks of float64, one per triangle, fit in a core's L1 or L2 cache.
const foldTile = 64

// foldPairs symmetrizes the RTTs in place. Dijkstra accumulates edge
// weights in path order, so d_ij and d_ji can differ by a few ULPs, and
// RTTs are symmetric by assumption (paper §3): each upper entry d_ij,
// i < j, becomes (d_ij + d_ji)/2, with d_ji from row j of below (see
// buildNetwork). The upper triangle is read along its rows and below
// along its columns, so the cache pairs are walked in tiles of foldTile
// rows by foldTile columns to keep both in cache.
func foldPairs(toOrigin, pairs, below []float64) {
	for c := range toOrigin {
		toOrigin[c] = (toOrigin[c] + below[(c+1)*c/2]) / 2
	}
	nc := len(toOrigin)
	for i0 := 0; i0 < nc; i0 += foldTile {
		i1 := min(i0+foldTile, nc)
		for j0 := i0; j0 < nc; j0 += foldTile {
			j1 := min(j0+foldTile, nc)
			for i := i0; i < i1; i++ {
				// Cache i is endpoint i+1, and cache j's row of below
				// starts at (j+1)j/2, so d_ji is at (j+1)j/2 + i+1.
				base := rowStart(nc, i) - i - 1
				for j := max(j0, i+1); j < j1; j++ {
					pairs[base+j] = (pairs[base+j] + below[(j+1)*j/2+i+1]) / 2
				}
			}
		}
	}
}

// NumCaches returns N, the number of edge caches.
func (nw *Network) NumCaches() int { return len(nw.caches) }

// Graph returns the underlying topology graph.
func (nw *Network) Graph() *Graph { return nw.graph }

// OriginNode returns the origin server's attachment router.
func (nw *Network) OriginNode() NodeID { return nw.origin }

// CacheNode returns the attachment router of cache i.
func (nw *Network) CacheNode(i CacheIndex) (NodeID, error) {
	if int(i) < 0 || int(i) >= len(nw.caches) {
		return 0, fmt.Errorf("topology: cache index %d out of range [0,%d)", i, len(nw.caches))
	}
	return nw.caches[int(i)], nil
}

// Dist returns the true RTT in milliseconds between caches i and j; it is
// 0 for i == j. It panics if i != j and either is out of range.
func (nw *Network) Dist(i, j CacheIndex) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	// A j past the last cache would land in a later row of pairs, so it
	// is bounds-checked against toOrigin, which has one entry per cache;
	// a negative i always gives a negative index. A panic message would
	// keep Dist from being inlined.
	_ = nw.toOrigin[j]
	return nw.pairs[rowStart(len(nw.caches), int(i))+int(j-i)-1]
}

// DistToOrigin returns the true RTT between cache i and the origin server.
func (nw *Network) DistToOrigin(i CacheIndex) float64 {
	return nw.toOrigin[i]
}

// MeanPairwiseDist returns the mean RTT over all unordered cache pairs.
// The packed triangle lists the pairs in (i, j), i < j, row order, so the
// sum is taken in that order.
func (nw *Network) MeanPairwiseDist() float64 {
	n := len(nw.caches)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, d := range nw.pairs {
		sum += d
	}
	return sum / float64(n*(n-1)/2)
}

// CachesByOriginDistance returns all cache indices sorted by ascending RTT
// to the origin server. Ties are broken by index for determinism.
func (nw *Network) CachesByOriginDistance() []CacheIndex {
	out := make([]CacheIndex, len(nw.caches))
	for i := range out {
		out[i] = CacheIndex(i)
	}
	sort.SliceStable(out, func(a, b int) bool {
		da, db := nw.DistToOrigin(out[a]), nw.DistToOrigin(out[b])
		if da != db {
			return da < db
		}
		return out[a] < out[b]
	})
	return out
}

// NearestCaches returns the k caches closest to the origin.
func (nw *Network) NearestCaches(k int) []CacheIndex {
	sorted := nw.CachesByOriginDistance()
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// FarthestCaches returns the k caches farthest from the origin.
func (nw *Network) FarthestCaches(k int) []CacheIndex {
	sorted := nw.CachesByOriginDistance()
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[len(sorted)-k:]
}
