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
// Network is immutable after construction and safe for concurrent reads.
type Network struct {
	graph  *Graph
	origin NodeID
	caches []NodeID

	// dist[i][j] is the RTT between endpoints i and j where index 0 is the
	// origin and index k+1 is cache k.
	dist [][]float64
}

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
// own Dijkstra scratch; every row depends on its source alone, so the
// matrix is the same at any worker count, and the error of the lowest
// failing source wins.
func buildNetwork(g *Graph, origin NodeID, caches []NodeID) (*Network, error) {
	endpoints := make([]NodeID, 0, len(caches)+1)
	endpoints = append(endpoints, origin)
	endpoints = append(endpoints, caches...)

	n := len(endpoints)
	dist := make([][]float64, n)
	errs := make([]error, n)
	workers := par.Workers(n, runtime.GOMAXPROCS(0))
	scratch := make([]dijkstraScratch, workers)
	par.ForEachWorker(n, workers, func(w, i int) {
		s := &scratch[w]
		if err := g.dijkstra(endpoints[i], nil, s); err != nil {
			errs[i] = fmt.Errorf("compute RTT matrix: source %d (%d): %w", i, endpoints[i], err)
			return
		}
		row := make([]float64, n)
		for j, e := range endpoints {
			d := s.dist[int(e)]
			if math.IsInf(d, 1) {
				errs[i] = fmt.Errorf("endpoint %d unreachable from endpoint %d: %w", j, i, ErrDisconnected)
				return
			}
			row[j] = d
		}
		dist[i] = row
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Dijkstra accumulates edge weights in path order, so dist[i][j] and
	// dist[j][i] can differ by a few ULPs. RTTs are symmetric by assumption
	// (paper §3), so symmetrize explicitly.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := (dist[i][j] + dist[j][i]) / 2
			dist[i][j], dist[j][i] = d, d
		}
	}
	return &Network{graph: g, origin: origin, caches: caches, dist: dist}, nil
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

// Dist returns the true RTT in milliseconds between caches i and j.
func (nw *Network) Dist(i, j CacheIndex) float64 {
	return nw.dist[int(i)+1][int(j)+1]
}

// DistToOrigin returns the true RTT between cache i and the origin server.
func (nw *Network) DistToOrigin(i CacheIndex) float64 {
	return nw.dist[0][int(i)+1]
}

// MeanPairwiseDist returns the mean RTT over all unordered cache pairs.
func (nw *Network) MeanPairwiseDist() float64 {
	n := len(nw.caches)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += nw.dist[i+1][j+1]
		}
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
