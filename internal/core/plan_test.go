package core

import (
	"testing"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// smallPlan builds a hand-crafted plan with 2 groups and 4 caches.
func smallPlan() *Plan {
	return &Plan{
		Scheme:      "SL",
		Landmarks:   []probe.Endpoint{probe.Origin(), probe.Cache(0)},
		Features:    []cluster.Vector{{0, 1}, {1, 0}, {10, 11}, {11, 10}},
		Points:      []cluster.Vector{{0, 1}, {1, 0}, {10, 11}, {11, 10}},
		ServerDist:  []float64{0, 1, 10, 11},
		Assignments: []int{0, 0, 1, 1},
		Centers:     []cluster.Vector{{0.5, 0.5}, {10.5, 10.5}},
	}
}

func TestPlanAccessors(t *testing.T) {
	p := smallPlan()
	if p.NumGroups() != 2 || p.NumCaches() != 4 {
		t.Fatalf("NumGroups=%d NumCaches=%d", p.NumGroups(), p.NumCaches())
	}
	g, err := p.GroupOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("GroupOf(2) = %d, want 1", g)
	}
	if _, err := p.GroupOf(4); err == nil {
		t.Fatal("out-of-range GroupOf accepted")
	}
	if _, err := p.GroupOf(-1); err == nil {
		t.Fatal("negative GroupOf accepted")
	}
	members, err := p.Group(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0] != 0 || members[1] != 1 {
		t.Fatalf("Group(0) = %v", members)
	}
	if _, err := p.Group(2); err == nil {
		t.Fatal("out-of-range Group accepted")
	}
	groups := p.Groups()
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("Groups() = %v", groups)
	}
	sizes := p.Sizes()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("Sizes() = %v", sizes)
	}
	if p.MeanGroupSize() != 2 {
		t.Fatalf("MeanGroupSize = %v", p.MeanGroupSize())
	}
}

func TestAssignPoint(t *testing.T) {
	p := smallPlan()
	g, err := p.AssignPoint(cluster.Vector{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if g != 0 {
		t.Fatalf("AssignPoint near group 0 = %d", g)
	}
	g, err = p.AssignPoint(cluster.Vector{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("AssignPoint near group 1 = %d", g)
	}
	if _, err := p.AssignPoint(cluster.Vector{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	empty := &Plan{}
	if _, err := empty.AssignPoint(cluster.Vector{1}); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// TestIncrementalAssignMatchesCluster: a cache added at an existing cache's
// exact position must join that cache's group.
func TestIncrementalAssignMatchesCluster(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStubParams(), simrand.New(60))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: 50}, simrand.New(61))
	if err != nil {
		t.Fatal(err)
	}
	prb, err := probe.NewProber(nw, probe.DefaultConfig(), simrand.New(62))
	if err != nil {
		t.Fatal(err)
	}
	gf, err := NewCoordinator(nw, prb, SL(8, 3), simrand.New(63))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i += 7 {
		wantGroup := plan.Assignments[i]
		got, err := plan.AssignPoint(plan.Points[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != wantGroup {
			// K-means convergence guarantees nearest-center assignment, so
			// this must hold exactly for converged plans.
			if plan.Converged {
				t.Fatalf("cache %d: AssignPoint = %d, cluster assignment = %d", i, got, wantGroup)
			}
		}
	}
}
