package topology

import (
	"math"
	"testing"
	"testing/quick"

	"edgecachegroups/internal/simrand"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultTransitStubParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	base := DefaultTransitStubParams()
	tests := []struct {
		name   string
		mutate func(*TransitStubParams)
	}{
		{"no transit domains", func(p *TransitStubParams) { p.TransitDomains = 0 }},
		{"no transit nodes", func(p *TransitStubParams) { p.TransitNodesPerDomain = 0 }},
		{"negative stub domains", func(p *TransitStubParams) { p.StubDomainsPerTransitNode = -1 }},
		{"no stub nodes", func(p *TransitStubParams) { p.StubNodesPerDomain = 0 }},
		{"zero rtt", func(p *TransitStubParams) { p.IntraStubRTT = 0 }},
		{"negative rtt", func(p *TransitStubParams) { p.TransitTransitRTT = -5 }},
		{"jitter too big", func(p *TransitStubParams) { p.Jitter = 1 }},
		{"jitter negative", func(p *TransitStubParams) { p.Jitter = -0.1 }},
		{"bad intra prob", func(p *TransitStubParams) { p.ExtraIntraDomainEdgeProb = 1.5 }},
		{"bad transit prob", func(p *TransitStubParams) { p.ExtraTransitPairProb = -0.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error, got nil")
			}
		})
	}
}

func TestStubNodeCount(t *testing.T) {
	p := DefaultTransitStubParams()
	want := 4 * 4 * 4 * 12
	if got := p.StubNodeCount(); got != want {
		t.Fatalf("StubNodeCount = %d, want %d", got, want)
	}
}

func TestGenerateTransitStubStructure(t *testing.T) {
	p := DefaultTransitStubParams()
	g, err := GenerateTransitStub(p, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantTransit := p.TransitDomains * p.TransitNodesPerDomain
	wantStub := p.StubNodeCount()
	if got := len(g.NodesOfKind(KindTransit)); got != wantTransit {
		t.Fatalf("transit nodes = %d, want %d", got, wantTransit)
	}
	if got := len(g.NodesOfKind(KindStub)); got != wantStub {
		t.Fatalf("stub nodes = %d, want %d", got, wantStub)
	}
	if !g.IsConnected() {
		t.Fatal("generated topology is disconnected")
	}
}

func TestGenerateTransitStubDeterministic(t *testing.T) {
	p := DefaultTransitStubParams()
	g1, err := GenerateTransitStub(p, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GenerateTransitStub(p, simrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different topologies: %d/%d nodes, %d/%d edges",
			g1.NumNodes(), g2.NumNodes(), g1.NumEdges(), g2.NumEdges())
	}
	// Spot-check edge weights between a sample of node pairs.
	d1, err := g1.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g2.ShortestPaths(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("distance to node %d differs: %v vs %v", i, d1[i], d2[i])
		}
	}
}

func TestGenerateTransitStubRejectsBadParams(t *testing.T) {
	p := DefaultTransitStubParams()
	p.TransitDomains = 0
	if _, err := GenerateTransitStub(p, simrand.New(1)); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestGenerateSingleDomain(t *testing.T) {
	p := TransitStubParams{
		TransitDomains:            1,
		TransitNodesPerDomain:     2,
		StubDomainsPerTransitNode: 1,
		StubNodesPerDomain:        3,
		TransitTransitRTT:         90,
		IntraTransitRTT:           20,
		TransitStubRTT:            10,
		IntraStubRTT:              2,
		Jitter:                    0,
	}
	g, err := GenerateTransitStub(p, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("single-domain topology disconnected")
	}
	if got := g.NumNodes(); got != 2+2*3 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
}

// TestLatencyLocality verifies the property that makes landmark quality
// matter: intra-stub-domain RTTs are much smaller than cross-backbone RTTs.
func TestLatencyLocality(t *testing.T) {
	p := DefaultTransitStubParams()
	src := simrand.New(5)
	g, err := GenerateTransitStub(p, src)
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.NodesOfKind(KindStub)
	byDomain := make(map[int][]NodeID)
	for _, id := range stubs {
		n, err := g.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		byDomain[n.Domain] = append(byDomain[n.Domain], id)
	}

	// Mean intra-domain RTT for one stub domain vs mean RTT to a stub in a
	// different transit region.
	var sample []NodeID
	for _, nodes := range byDomain {
		sample = nodes
		break
	}
	dist, err := g.ShortestPaths(sample[0])
	if err != nil {
		t.Fatal(err)
	}
	var intraSum float64
	for _, id := range sample[1:] {
		intraSum += dist[int(id)]
	}
	intraMean := intraSum / float64(len(sample)-1)

	var globalSum float64
	var globalCount int
	for _, id := range stubs {
		if d := dist[int(id)]; !math.IsInf(d, 1) && d > 0 {
			globalSum += d
			globalCount++
		}
	}
	globalMean := globalSum / float64(globalCount)

	if intraMean*3 > globalMean {
		t.Fatalf("locality too weak: intra-domain mean %v, global mean %v", intraMean, globalMean)
	}
}

// TestTriangleInequalityProperty: shortest-path distances always satisfy the
// triangle inequality.
func TestTriangleInequalityProperty(t *testing.T) {
	p := TransitStubParams{
		TransitDomains:            2,
		TransitNodesPerDomain:     2,
		StubDomainsPerTransitNode: 2,
		StubNodesPerDomain:        4,
		TransitTransitRTT:         80,
		IntraTransitRTT:           20,
		TransitStubRTT:            10,
		IntraStubRTT:              3,
		Jitter:                    0.2,
		ExtraIntraDomainEdgeProb:  0.3,
		ExtraTransitPairProb:      0.3,
	}
	f := func(seed int64) bool {
		g, err := GenerateTransitStub(p, simrand.New(seed))
		if err != nil {
			return false
		}
		n := g.NumNodes()
		d := make([][]float64, n)
		for i := range d {
			if d[i], err = g.ShortestPaths(NodeID(i)); err != nil {
				return false
			}
		}
		const eps = 1e-9
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(d[i][j]-d[j][i]) > eps {
					return false // symmetry
				}
				for k := 0; k < n; k++ {
					if d[i][j] > d[i][k]+d[k][j]+eps {
						return false // triangle inequality
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
