package serve

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
)

func testConfig(plan *core.Plan) Config {
	return Config{
		Plan: plan,
		Rand: simrand.New(1),
		Maint: core.MaintainerConfig{
			Interval:          time.Hour, // tests drive Tick directly
			SampleFraction:    1,
			DriftThreshold:    0.2,
			ReclusterFraction: 0.9,
			Verify:            true,
		},
	}
}

func TestNewEngineValidation(t *testing.T) {
	withPlan := func(edit func(p *core.Plan)) Config {
		p := testPlan(8)
		edit(p)
		return Config{Plan: p, Rand: simrand.New(1)}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil plan", Config{Rand: simrand.New(1)}, "nil plan"},
		{"nil random source", Config{Plan: testPlan(8)}, "nil random source"},
		{"embedded representation", withPlan(func(p *core.Plan) {
			// Raw landmark RTTs in 3-dim feature space, clustered in a 2-dim
			// embedding: ingested vectors would not live in the clustered space.
			for i := range p.Features {
				p.Features[i] = cluster.Vector{1, 2, 3}
			}
		}), "embedded-representation"},
		{"missing landmarks", withPlan(func(p *core.Plan) { p.Landmarks = nil }), "landmarks"},
		{"landmark count differs from feature dimension", withPlan(func(p *core.Plan) {
			p.Landmarks = append(p.Landmarks, probe.Cache(1))
		}), "landmarks"},
		{"landmarks without the origin", withPlan(func(p *core.Plan) {
			p.Landmarks = []probe.Endpoint{probe.Cache(0), probe.Cache(1)}
		}), "origin"},
		{"unknown algorithm", withPlan(func(p *core.Plan) { p.Algorithm = 9 }), "algorithm"},
		{"negative theta", withPlan(func(p *core.Plan) { p.Theta = -1 }), "theta"},
	}
	for _, tc := range cases {
		if _, err := NewEngine(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewEngine err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestEngineBootEpoch(t *testing.T) {
	plan := testPlan(8)
	e, err := NewEngine(testConfig(plan))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ep := e.Epoch()
	if ep == nil || ep.Seq != 1 || ep.Plan != plan {
		t.Fatalf("boot epoch = %+v, want seq 1 over the boot plan", ep)
	}
	if g, _, err := e.Assign(0); err != nil || g != 0 {
		t.Fatalf("Assign(0) = %d, %v; want 0, nil", g, err)
	}
	if _, _, err := e.Assign(99); err == nil {
		t.Fatal("Assign(99) out of range accepted")
	}
	h := e.Health()
	if h.Status != "ok" {
		t.Fatalf("boot health %q, want ok", h.Status)
	}
}

func TestEngineIngestValidation(t *testing.T) {
	e, err := NewEngine(testConfig(testPlan(8)))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cases := []struct {
		name  string
		batch []CacheStat
	}{
		{"empty batch", nil},
		{"cache out of range", []CacheStat{{Cache: 8, RTTMS: []float64{1, 2}}}},
		{"negative cache", []CacheStat{{Cache: -1, RTTMS: []float64{1, 2}}}},
		{"wrong dimension", []CacheStat{{Cache: 0, RTTMS: []float64{1}}}},
		{"negative rtt", []CacheStat{{Cache: 0, RTTMS: []float64{-1, 2}}}},
		{"negative requests", []CacheStat{{Cache: 0, RTTMS: []float64{1, 2}, Requests: -1}}},
		{"one bad rejects all", []CacheStat{
			{Cache: 0, RTTMS: []float64{1, 2}},
			{Cache: 1, RTTMS: []float64{1}},
		}},
	}
	for _, tc := range cases {
		if err := e.Ingest(tc.batch); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if n := e.Stats().Total(); n != 0 {
		t.Fatalf("rejected batches half-applied: %d reports recorded", n)
	}
	if err := e.Ingest([]CacheStat{{Cache: 0, RTTMS: []float64{1, 2}, Requests: 3}}); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if n := e.Stats().Total(); n != 1 {
		t.Fatalf("Total = %d after one valid report, want 1", n)
	}
}

// TestEngineDriftReassign is the serving e2e: ingest a full stats report
// in which one cache drifted to the other group's neighborhood, tick, and
// check the published epoch advanced to a verified plan with the cache
// reassigned — while the old epoch snapshot stays intact.
func TestEngineDriftReassign(t *testing.T) {
	plan := testPlan(8)
	e, err := NewEngine(testConfig(plan))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := e.Epoch()
	beforeAssign := append([]int(nil), before.Plan.Assignments...)

	batch := statsFor(plan)
	batch[0].RTTMS = []float64{201, 199} // cache 0 now sits with group 1
	if err := e.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	ev, err := e.Tick()
	if err != nil {
		t.Fatalf("Tick: %v (event %+v)", err, ev)
	}
	if len(ev.Reassigned) != 1 || int(ev.Reassigned[0]) != 0 {
		t.Fatalf("reassigned %v, want [0]", ev.Reassigned)
	}

	after := e.Epoch()
	if after.Seq != before.Seq+1 {
		t.Fatalf("epoch %d after reassignment, want %d", after.Seq, before.Seq+1)
	}
	if after.Plan.Assignments[0] != 1 {
		t.Fatalf("cache 0 assigned to %d, want 1", after.Plan.Assignments[0])
	}
	if err := after.Plan.Verify(nil); err != nil {
		t.Fatalf("published plan fails verification: %v", err)
	}
	if after.Checksum != after.Plan.Checksum() {
		t.Fatal("epoch checksum does not match its plan")
	}
	// The superseded epoch is immutable: a long-running request that loaded
	// it before the swap still sees the old assignment.
	for i, a := range before.Plan.Assignments {
		if a != beforeAssign[i] {
			t.Fatalf("old epoch mutated at cache %d: %d -> %d", i, beforeAssign[i], a)
		}
	}

	h := e.Health()
	if h.Status != "ok" || h.Rounds != 1 || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after a good round: %+v", h)
	}
	if h.ReportedCaches != 8 || h.IngestedRequests != 8 {
		t.Fatalf("ingest accounting: %d caches, %d requests, want 8/8", h.ReportedCaches, h.IngestedRequests)
	}
}

// TestEngineIngestedRequestsSaturate feeds request counts whose sums
// overflow int64, both within one window (StatsBuffer.Record) and across
// windows (Engine.Tick): /healthz must read math.MaxInt64, never wrap
// negative.
func TestEngineIngestedRequestsSaturate(t *testing.T) {
	plan := testPlan(8)
	e, err := NewEngine(testConfig(plan))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	huge := CacheStat{Cache: 0, RTTMS: append([]float64(nil), plan.Points[0]...), Requests: math.MaxInt64}
	for window := 1; window <= 2; window++ {
		if err := e.Ingest([]CacheStat{huge, huge}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if _, err := e.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if got := e.Health().IngestedRequests; got != math.MaxInt64 {
			t.Fatalf("window %d: ingestedRequests = %d, want saturation at %d", window, got, int64(math.MaxInt64))
		}
	}
}

// widespreadDrift is a stats report in which every cache of an 8-cache
// testPlan drifts: the two clusters trade places and spread.
func widespreadDrift(plan *core.Plan) []CacheStat {
	batch := statsFor(plan)
	for i := range batch {
		if i < 4 {
			batch[i].RTTMS = []float64{500 + float64(i), 500}
		} else {
			batch[i].RTTMS = []float64{30 + float64(i), 30}
		}
	}
	return batch
}

// TestEngineDefaultRecluster exercises the stats-based re-formation:
// widespread drift pushes past ReclusterFraction and the default
// Plan.Reform over the ingested vectors replaces the plan.
func TestEngineDefaultRecluster(t *testing.T) {
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.Maint.ReclusterFraction = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Ingest(widespreadDrift(plan)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	ev, err := e.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if !ev.Reclustered {
		t.Fatalf("expected a full recluster, got %+v", ev)
	}
	ep := e.Epoch()
	if ep.Seq != 2 {
		t.Fatalf("epoch %d after recluster, want 2", ep.Seq)
	}
	if err := ep.Plan.Verify(nil); err != nil {
		t.Fatalf("reclustered plan fails verification: %v", err)
	}
	// The boot plan is SL, so the re-formation seeds uniformly, and its
	// ServerDist is the origin column of the ingested vectors.
	if got, want := ep.Checksum, uint64(0x430510942317721d); got != want {
		t.Fatalf("re-clustered epoch checksum %016x, want %016x", got, want)
	}
	// The new plan clusters the ingested geometry: caches 0-3 together,
	// 4-7 together.
	a := ep.Plan.Assignments
	for i := 1; i < 4; i++ {
		if a[i] != a[0] {
			t.Fatalf("caches 0-3 split across groups: %v", a)
		}
	}
	for i := 5; i < 8; i++ {
		if a[i] != a[4] {
			t.Fatalf("caches 4-7 split across groups: %v", a)
		}
	}
	if a[0] == a[4] {
		t.Fatalf("all caches in one group: %v", a)
	}
}

// TestEngineReclusterKeepsKMedoids: the default re-formation runs the
// boot plan's own algorithm, so a K-medoids plan stays K-medoids, with
// every center one of its members' points, instead of coming back as a
// K-means plan with mean centers.
func TestEngineReclusterKeepsKMedoids(t *testing.T) {
	plan := testPlan(8)
	plan.Algorithm = core.AlgoKMedoids
	plan.Centers = []cluster.Vector{plan.Points[0], plan.Points[4]}
	cfg := testConfig(plan)
	cfg.Maint.ReclusterFraction = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Ingest(widespreadDrift(plan)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	ev, err := e.Tick()
	if err != nil || !ev.Reclustered {
		t.Fatalf("Tick: %+v, %v; want a full recluster", ev, err)
	}
	next := e.Epoch().Plan
	if next.Algorithm != core.AlgoKMedoids {
		t.Fatalf("re-formed plan algorithm %v, want %v", next.Algorithm, core.AlgoKMedoids)
	}
	for g, c := range next.Centers {
		isMember := false
		for i, a := range next.Assignments {
			isMember = isMember || (a == g && slices.Equal(next.Points[i], c))
		}
		if !isMember {
			t.Fatalf("group %d center %v is no member's point", g, c)
		}
	}
}

// TestEngineEpochOwnsIngestedVectors: a caller that reuses its Ingest
// buffer after a Tick must not reach a published epoch, whether the round
// re-clustered or updated the plan incrementally.
func TestEngineEpochOwnsIngestedVectors(t *testing.T) {
	for _, recluster := range []bool{true, false} {
		t.Run(fmt.Sprintf("recluster=%v", recluster), func(t *testing.T) {
			plan := testPlan(8)
			cfg := testConfig(plan)
			batch := statsFor(plan)
			if recluster {
				cfg.Maint.ReclusterFraction = 0.5
				batch = widespreadDrift(plan)
			} else {
				batch[0].RTTMS = []float64{201, 199}
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			ev, err := e.Tick()
			if err != nil {
				t.Fatalf("Tick: %v", err)
			}
			if ev.Reclustered != recluster {
				t.Fatalf("Reclustered = %v, want %v", ev.Reclustered, recluster)
			}
			ep := e.Epoch()
			if ep.Seq != 2 {
				t.Fatalf("epoch %d after the round, want 2", ep.Seq)
			}
			for i := range batch {
				batch[i].RTTMS[0] = 1e6
			}
			if got := ep.Plan.Checksum(); got != ep.Checksum {
				t.Fatalf("published plan changed with the caller's buffer: checksum %016x, epoch %016x", got, ep.Checksum)
			}
		})
	}
}

// TestEngineServesStaleThrough100Failures is the issue's acceptance
// criterion: with re-formation failing on every round, the daemon keeps
// answering assignment queries from the last good epoch for 100
// consecutive failures, reporting degraded (stale-but-serving) health the
// whole time.
func TestEngineServesStaleThrough100Failures(t *testing.T) {
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.Maint.ReclusterFraction = 0.1
	reclusterErr := errors.New("quorum lost")
	recovered := testPlan(8)
	failing := true
	calls := 0
	cfg.Recluster = func() (*core.Plan, error) {
		calls++
		if failing {
			return nil, reclusterErr
		}
		return recovered, nil
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	good := e.Epoch()

	// Widespread drift, re-ingested every round: the failing recluster
	// never absorbs it, so every tick re-attempts and fails.
	for round := 1; round <= 100; round++ {
		batch := statsFor(plan)
		for i := range batch {
			batch[i].RTTMS = []float64{900 + float64(i), 900}
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatalf("round %d: Ingest: %v", round, err)
		}
		if _, err := e.Tick(); err == nil {
			t.Fatalf("round %d: Tick succeeded with a failing recluster", round)
		}

		g, ep, err := e.Assign(0)
		if err != nil {
			t.Fatalf("round %d: Assign stopped serving: %v", round, err)
		}
		if ep != good || g != plan.Assignments[0] {
			t.Fatalf("round %d: serving epoch %d group %d, want the last good epoch %d group %d",
				round, ep.Seq, g, good.Seq, plan.Assignments[0])
		}
		h := e.Health()
		if h.Status != "degraded" || !h.ServingStalePlans {
			t.Fatalf("round %d: health %q (stale=%v), want degraded/stale", round, h.Status, h.ServingStalePlans)
		}
		if h.ConsecutiveFailures != round {
			t.Fatalf("round %d: %d consecutive failures recorded", round, h.ConsecutiveFailures)
		}
		if !strings.Contains(h.LastError, "quorum lost") {
			t.Fatalf("round %d: last error %q does not surface the cause", round, h.LastError)
		}
	}
	if calls != 100 {
		t.Fatalf("recluster attempted %d times, want 100", calls)
	}

	// Recovery: the drift never went away, so once re-formation works
	// again the very next round publishes a fresh epoch and health returns
	// to ok.
	failing = false
	batch := statsFor(plan)
	for i := range batch {
		batch[i].RTTMS = []float64{900 + float64(i), 900}
	}
	if err := e.Ingest(batch); err != nil {
		t.Fatalf("recovery ingest: %v", err)
	}
	ev, err := e.Tick()
	if err != nil {
		t.Fatalf("recovery tick: %v", err)
	}
	if !ev.Reclustered {
		t.Fatalf("recovery round did not recluster: %+v", ev)
	}
	ep := e.Epoch()
	if ep.Seq != good.Seq+1 || ep.Plan != recovered {
		t.Fatalf("recovery published epoch %d, want %d over the recovered plan", ep.Seq, good.Seq+1)
	}
	h := e.Health()
	if h.Status != "ok" || h.ConsecutiveFailures != 0 || h.ServingStalePlans {
		t.Fatalf("health after recovery: %+v", h)
	}
}

func TestEngineSnapshotPersistReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.SnapshotPath = path
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Boot publish already persisted; advance one epoch via drift.
	batch := statsFor(plan)
	batch[7].RTTMS = []float64{11, 9} // cache 7 drifts to group 0
	if err := e.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if _, err := e.Tick(); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	cur := e.Epoch()
	if cur.Seq != 2 {
		t.Fatalf("epoch %d, want 2", cur.Seq)
	}

	restored, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if restored.Seq != 2 || restored.Checksum != cur.Checksum {
		t.Fatalf("snapshot holds epoch %d checksum %016x, want 2/%016x", restored.Seq, restored.Checksum, cur.Checksum)
	}

	// A restarted daemon boots from the snapshot and keeps counting epochs.
	cfg2 := testConfig(restored.Plan)
	cfg2.SnapshotPath = path
	cfg2.ResumeEpoch = restored.Seq
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatalf("NewEngine after restore: %v", err)
	}
	ep2 := e2.Epoch()
	if ep2.Seq != 3 {
		t.Fatalf("restored boot epoch %d, want ResumeEpoch+1 = 3", ep2.Seq)
	}
	if ep2.Checksum != cur.Checksum {
		t.Fatalf("restored plan checksum %016x, want %016x", ep2.Checksum, cur.Checksum)
	}
	if g, _, err := e2.Assign(7); err != nil || g != 0 {
		t.Fatalf("restored Assign(7) = %d, %v; want the post-drift group 0", g, err)
	}
}

func TestEngineStartStop(t *testing.T) {
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.Maint.Interval = 5 * time.Millisecond
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.Start()
	deadline := time.Now().Add(2 * time.Second)
	for e.Health().Rounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	e.Stop() // idempotent
}
