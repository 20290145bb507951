package core

import (
	"errors"
	"math"
	"testing"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// maintPlan builds a 2-group plan with well-separated centers.
func maintPlan(n int) *Plan {
	points := make([]cluster.Vector, n)
	assigns := make([]int, n)
	for i := range points {
		if i < n/2 {
			points[i] = cluster.Vector{10 + float64(i%3), 10}
			assigns[i] = 0
		} else {
			points[i] = cluster.Vector{200 + float64(i%3), 200}
			assigns[i] = 1
		}
	}
	p := &Plan{
		Scheme:      "SL",
		Points:      points,
		Features:    append([]cluster.Vector(nil), points...),
		Assignments: assigns,
		Centers:     make([]cluster.Vector, 2),
	}
	// Centers are member means, as after formation: Verify checks that on
	// every plan whose algorithm is not K-medoids.
	refreshCenters(p, []bool{true, true})
	return p
}

// stableSource returns the plan's own points (no drift).
func stableSource(p *Plan) FeatureSource {
	return func(i topology.CacheIndex) (cluster.Vector, error) {
		return p.Points[int(i)].Clone(), nil
	}
}

func TestMaintainerConfigValidate(t *testing.T) {
	if err := DefaultMaintainerConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []MaintainerConfig{
		{Interval: -1, SampleFraction: 0.5, DriftThreshold: 0.1, ReclusterFraction: 0.5},
		{Interval: 1, SampleFraction: 0, DriftThreshold: 0.1, ReclusterFraction: 0.5},
		{Interval: 1, SampleFraction: 1.5, DriftThreshold: 0.1, ReclusterFraction: 0.5},
		{Interval: 1, SampleFraction: 0.5, DriftThreshold: 0, ReclusterFraction: 0.5},
		{Interval: 1, SampleFraction: 0.5, DriftThreshold: 0.1, ReclusterFraction: 0},
		{Interval: 1, SampleFraction: 0.5, DriftThreshold: 0.1, ReclusterFraction: 2},
		// Non-finite values: a NaN threshold never detects drift.
		{SampleFraction: nan, DriftThreshold: 0.1, ReclusterFraction: 0.5},
		{SampleFraction: inf, DriftThreshold: 0.1, ReclusterFraction: 0.5},
		{SampleFraction: 0.5, DriftThreshold: nan, ReclusterFraction: 0.5},
		{SampleFraction: 0.5, DriftThreshold: inf, ReclusterFraction: 0.5},
		{SampleFraction: 0.5, DriftThreshold: -inf, ReclusterFraction: 0.5},
		{SampleFraction: 0.5, DriftThreshold: 0.1, ReclusterFraction: nan},
		{SampleFraction: 0.5, DriftThreshold: 0.1, ReclusterFraction: inf},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestNewMaintainerErrors checks that MaintainRound rejects its bad
// inputs before it draws a sample.
func TestNewMaintainerErrors(t *testing.T) {
	plan := maintPlan(10)
	cfg := DefaultMaintainerConfig()
	src := simrand.New(1)
	bad := cfg
	bad.SampleFraction = 0
	cases := []struct {
		name   string
		plan   *Plan
		source FeatureSource
		cfg    MaintainerConfig
		src    *simrand.Source
	}{
		{"nil plan", nil, stableSource(plan), cfg, src},
		{"nil source", plan, nil, cfg, src},
		{"nil rand", plan, stableSource(plan), cfg, nil},
		{"bad config", plan, stableSource(plan), bad, src},
		{"empty plan", &Plan{}, stableSource(plan), cfg, src},
	}
	for _, tc := range cases {
		next, ev, err := MaintainRound(tc.plan, tc.source, nil, tc.cfg, tc.src)
		if err == nil || ev.Err != err || next != tc.plan {
			t.Fatalf("%s accepted: plan %p, event %+v, err %v", tc.name, next, ev, err)
		}
	}
}

func TestRunOnceNoDrift(t *testing.T) {
	plan := maintPlan(20)
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, stableSource(plan), nil, cfg, simrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sampled != 20 {
		t.Fatalf("event = %+v", ev)
	}
	if len(ev.Drifted) != 0 || len(ev.Reassigned) != 0 || ev.Reclustered || next != plan {
		t.Fatalf("stable network produced changes: %+v", ev)
	}
}

func TestRunOnceIncrementalReassignment(t *testing.T) {
	plan := maintPlan(20)
	// Cache 0 (group 0) drifts to group 1's neighbourhood.
	drifting := map[int]cluster.Vector{0: {199, 201}}
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if fv, ok := drifting[int(i)]; ok {
			return fv.Clone(), nil
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Drifted) != 1 || ev.Drifted[0] != 0 {
		t.Fatalf("drifted = %v", ev.Drifted)
	}
	if len(ev.Reassigned) != 1 || ev.Reassigned[0] != 0 {
		t.Fatalf("reassigned = %v", ev.Reassigned)
	}
	if ev.Reclustered {
		t.Fatal("isolated drift triggered a full recluster")
	}
	g, err := next.GroupOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("cache 0 in group %d after drift, want 1", g)
	}
	// Stored features refreshed.
	if cluster.L2(next.Points[0], cluster.Vector{199, 201}) != 0 {
		t.Fatal("plan points not refreshed")
	}
}

func TestRunOnceWidespreadDriftTriggersRecluster(t *testing.T) {
	plan := maintPlan(20)
	// Everything drifts.
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		return cluster.Vector{1000 + float64(i), 1000}, nil
	}
	fresh := maintPlan(20)
	fresh.Scheme = "recustered"
	calls := 0
	recluster := func() (*Plan, error) {
		calls++
		return fresh, nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, recluster, cfg, simrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Reclustered || calls != 1 {
		t.Fatalf("recluster not triggered: %+v calls=%d", ev, calls)
	}
	if next != fresh {
		t.Fatal("plan not replaced")
	}
}

func TestRunOnceReclusterErrorSurfaces(t *testing.T) {
	plan := maintPlan(10)
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		return cluster.Vector{9999, 9999}, nil
	}
	reclusterErr := errors.New("network down")
	next, _, err := MaintainRound(plan, source, func() (*Plan, error) { return nil, reclusterErr },
		MaintainerConfig{SampleFraction: 1, DriftThreshold: 0.1, ReclusterFraction: 0.3},
		simrand.New(5))
	if !errors.Is(err, reclusterErr) {
		t.Fatalf("err = %v, want wrapped recluster error", err)
	}
	if next != plan {
		t.Fatal("failed round did not return the plan it started from")
	}
}

func TestRunOnceSkipsUnreachableCaches(t *testing.T) {
	plan := maintPlan(10)
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if i == 3 {
			return nil, errors.New("unreachable")
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	if _, _, err := MaintainRound(plan, source, nil, cfg, simrand.New(6)); err != nil {
		t.Fatalf("round failed on unreachable cache: %v", err)
	}
}

// kmeansMaintPlan builds a 2-group K-means plan whose centers are the
// exact member means, so it passes the centers-are-means verify check.
func kmeansMaintPlan(n int) *Plan {
	p := maintPlan(n)
	p.Algorithm = AlgoKMeans
	for g := range p.Centers {
		mean := make(cluster.Vector, len(p.Points[0]))
		count := 0
		for i, a := range p.Assignments {
			if a != g {
				continue
			}
			count++
			for j, x := range p.Points[i] {
				mean[j] += x
			}
		}
		for j := range mean {
			mean[j] /= float64(count)
		}
		p.Centers[g] = mean
	}
	return p
}

// TestRunOnceCopyOnWrite pins the COW contract: a plan snapshot taken
// before a round is never mutated by the round — the round builds a
// replacement for the caller to install.
func TestRunOnceCopyOnWrite(t *testing.T) {
	plan := maintPlan(20)
	before := plan.Checksum()
	beforeAssign := append([]int(nil), plan.Assignments...)
	drifting := map[int]cluster.Vector{0: {199, 201}}
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if fv, ok := drifting[int(i)]; ok {
			return fv.Clone(), nil
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Reassigned) != 1 {
		t.Fatalf("reassigned = %v", ev.Reassigned)
	}
	if next == plan {
		t.Fatal("round published the same *Plan it started from; want a copy-on-write replacement")
	}
	if plan.Checksum() != before {
		t.Fatal("round mutated the snapshot a concurrent reader could hold")
	}
	for i, a := range plan.Assignments {
		if a != beforeAssign[i] {
			t.Fatalf("snapshot assignment %d changed from %d to %d", i, beforeAssign[i], a)
		}
	}
	if g := next.Assignments[0]; g != 1 {
		t.Fatalf("published plan has cache 0 in group %d, want 1", g)
	}
}

// TestRunOncePlanVerifiesAfterReassignment is the regression test for the
// stale-centers bug: incremental reassignment moved points without
// recomputing Centers, so a maintained K-means plan failed the
// centers-are-means check and its checksum went stale.
func TestRunOncePlanVerifiesAfterReassignment(t *testing.T) {
	plan := kmeansMaintPlan(20)
	if err := plan.Verify(nil); err != nil {
		t.Fatalf("seed plan invalid: %v", err)
	}
	before := plan.Checksum()
	drifting := map[int]cluster.Vector{0: {199, 201}, 4: {15, 14}}
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if fv, ok := drifting[int(i)]; ok {
			return fv.Clone(), nil
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Drifted) != 2 {
		t.Fatalf("drifted = %v", ev.Drifted)
	}
	if err := next.Verify(nil); err != nil {
		t.Fatalf("maintained plan fails verification: %v", err)
	}
	if next.Checksum() == before {
		t.Fatal("maintained plan kept the pre-drift checksum despite moved points and centers")
	}
	// Cache 4 drifted without changing group: its group's center must
	// still have been recomputed to the new member mean.
	if cluster.L2(next.Points[4], cluster.Vector{15, 14}) != 0 {
		t.Fatal("drifted-in-place point not refreshed")
	}
}

// TestRunOnceSampledCountsMeasurements is the regression test for Sampled
// reporting the requested sample size: failed measurements must move to
// Skipped, not inflate Sampled.
func TestRunOnceSampledCountsMeasurements(t *testing.T) {
	plan := maintPlan(10)
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if int(i)%2 == 0 {
			return nil, errors.New("unreachable")
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	_, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sampled != 5 || ev.Skipped != 5 {
		t.Fatalf("Sampled=%d Skipped=%d, want 5/5", ev.Sampled, ev.Skipped)
	}
}

// TestReclusterFractionUsesMeasuredCount pins the trigger denominator:
// with half the sample unreachable and every measured cache drifted, the
// drift fraction is 100% of measurements — the old requested-size
// denominator diluted it to 50% and suppressed the recluster.
func TestReclusterFractionUsesMeasuredCount(t *testing.T) {
	plan := maintPlan(10)
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if int(i) < 5 {
			return nil, errors.New("unreachable")
		}
		return cluster.Vector{5000 + float64(i), 5000}, nil
	}
	fresh := maintPlan(10)
	calls := 0
	recluster := func() (*Plan, error) {
		calls++
		return fresh, nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	cfg.ReclusterFraction = 0.5
	next, ev, err := MaintainRound(plan, source, recluster, cfg, simrand.New(34))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Reclustered || calls != 1 || next != fresh {
		t.Fatalf("recluster not triggered on 5/5 measured drift (5 skipped): %+v calls=%d", ev, calls)
	}
}

// TestRunOnceKeepsLastGroupMember: reassigning a group's only member away
// would break the partition invariant; the round keeps it in place
// and the plan still verifies.
func TestRunOnceKeepsLastGroupMember(t *testing.T) {
	points := []cluster.Vector{{10, 10}, {11, 10}, {12, 10}, {200, 200}}
	plan := &Plan{
		Scheme:      "SL",
		Points:      points,
		Features:    append([]cluster.Vector(nil), points...),
		Assignments: []int{0, 0, 0, 1},
		Centers:     []cluster.Vector{{11, 10}, {200, 200}},
		Algorithm:   AlgoKMeans,
	}
	// Fix group 0's center to the exact mean so the seed plan verifies.
	plan.Centers[0] = cluster.Vector{11, 10}
	drifting := map[int]cluster.Vector{3: {13, 10}} // sole member of group 1 drifts into group 0
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if fv, ok := drifting[int(i)]; ok {
			return fv.Clone(), nil
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	cfg.ReclusterFraction = 1 // keep the incremental path
	next, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(35))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Reassigned) != 0 {
		t.Fatalf("sole group member reassigned away: %+v", ev)
	}
	if g := next.Assignments[3]; g != 1 {
		t.Fatalf("cache 3 moved to group %d, emptying group 1", g)
	}
	if err := next.Verify(nil); err != nil {
		t.Fatalf("plan invalid after guarded round: %v", err)
	}
	// The singleton's center follows its drifted point.
	if cluster.L2(next.Centers[1], cluster.Vector{13, 10}) != 0 {
		t.Fatalf("singleton center = %v, want the drifted point", next.Centers[1])
	}
}

// TestRunOnceMedoidCentersStayReal: for K-medoids plans the round
// recomputes the medoid of touched groups instead of a mean, preserving
// the centers-are-real-points property.
func TestRunOnceMedoidCentersStayReal(t *testing.T) {
	plan := maintPlan(6)
	plan.Algorithm = AlgoKMedoids
	plan.Centers = []cluster.Vector{plan.Points[1].Clone(), plan.Points[4].Clone()}
	drifting := map[int]cluster.Vector{0: {201, 199}}
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		if fv, ok := drifting[int(i)]; ok {
			return fv.Clone(), nil
		}
		return plan.Points[int(i)].Clone(), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	cfg.ReclusterFraction = 1
	next, _, err := MaintainRound(plan, source, nil, cfg, simrand.New(36))
	if err != nil {
		t.Fatal(err)
	}
	for g, c := range next.Centers {
		found := false
		for i, a := range next.Assignments {
			if a == g && cluster.L2(next.Points[i], c) == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("medoid center %d (%v) is not a member point", g, c)
		}
	}
}

// TestRunOnceRejectsInvalidRecluster: every candidate plan is verified
// before it is installed, so a recluster that returns a broken plan fails
// the round and the last good plan stays.
func TestRunOnceRejectsInvalidRecluster(t *testing.T) {
	plan := maintPlan(10)
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		return cluster.Vector{9999, 9999}, nil
	}
	broken := maintPlan(10)
	broken.Assignments[0] = 7 // no such group
	cfg := MaintainerConfig{SampleFraction: 1, DriftThreshold: 0.1, ReclusterFraction: 0.3}
	next, ev, err := MaintainRound(plan, source, func() (*Plan, error) { return broken, nil }, cfg, simrand.New(37))
	if err == nil || ev.Err != err || ev.Reclustered {
		t.Fatalf("invalid recluster accepted: %+v, %v", ev, err)
	}
	if next != plan {
		t.Fatal("invalid recluster replaced the installed plan")
	}
}

// TestMaintainerEndToEnd wires the maintainer to a real coordinator and
// prober: re-measured features (same conditions) must not churn groups.
func TestMaintainerEndToEnd(t *testing.T) {
	nw, p := testSetup(t, 40, 190)
	gf, err := NewCoordinator(nw, p, SL(6, 3), simrand.New(191))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		vals, err := p.MeasureTo(probe.Cache(i), plan.Landmarks)
		if err != nil {
			return nil, err
		}
		return cluster.Vector(vals), nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, func() (*Plan, error) { return gf.FormGroups(4) }, cfg, simrand.New(192))
	if err != nil {
		t.Fatal(err)
	}
	// The prober is deterministic per pair, so re-measured features are
	// identical: zero drift.
	if len(ev.Drifted) != 0 || ev.Reclustered || next != plan {
		t.Fatalf("stable conditions produced drift: %+v", ev)
	}
}

// TestRunOnceRefreshesServerDist is the regression test for stale server
// distances: an incremental round replaced the points and features of
// drifted caches but kept their old ServerDist, so the published plan's
// origin RTTs disagreed with its own feature vectors (and Checksum hashed
// the stale values).
func TestRunOnceRefreshesServerDist(t *testing.T) {
	nw, p := testSetup(t, 40, 190)
	gf, err := NewCoordinator(nw, p, SDSL(6, 3, 1), simrand.New(191))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := plan.OriginColumn()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), plan.ServerDist...)
	// Three caches drift: every RTT doubles. Too few for a full recluster.
	source := func(i topology.CacheIndex) (cluster.Vector, error) {
		fv := plan.Features[int(i)].Clone()
		if i < 3 {
			for j := range fv {
				fv[j] *= 2
			}
		}
		return fv, nil
	}
	cfg := DefaultMaintainerConfig()
	cfg.SampleFraction = 1
	next, ev, err := MaintainRound(plan, source, nil, cfg, simrand.New(192))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Drifted) != 3 || ev.Reclustered {
		t.Fatalf("want an incremental round over 3 drifted caches, got %+v", ev)
	}
	for i, f := range next.Features {
		if next.ServerDist[i] != f[origin] {
			t.Fatalf("cache %d: ServerDist %v, origin feature %v", i, next.ServerDist[i], f[origin])
		}
	}
	for i, d := range plan.ServerDist {
		if d != before[i] {
			t.Fatalf("round rewrote the published plan's ServerDist[%d]: %v -> %v", i, before[i], d)
		}
	}
}
