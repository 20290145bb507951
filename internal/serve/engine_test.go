package serve

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
		{"NaN theta", withPlan(func(p *core.Plan) { p.Theta = math.NaN() }), "theta"},
	}
	for _, tc := range cases {
		if _, err := NewEngine(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewEngine err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestNewEngineMaintConfig pins when the daemon defaults apply: only to a
// config whose SampleFraction, DriftThreshold and ReclusterFraction are
// all zero. A partly set config is validated as given, never silently
// replaced by the defaults.
func TestNewEngineMaintConfig(t *testing.T) {
	boot := func(m core.MaintainerConfig) (*Engine, error) {
		return NewEngine(Config{Plan: testPlan(8), Rand: simrand.New(1), Maint: m})
	}
	if _, err := boot(core.MaintainerConfig{DriftThreshold: 0.05, ReclusterFraction: 1}); err == nil || !strings.Contains(err.Error(), "SampleFraction") {
		t.Fatalf("partial config without SampleFraction: err = %v, want a SampleFraction error", err)
	}
	e, err := boot(core.MaintainerConfig{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	want := core.MaintainerConfig{Interval: time.Minute, SampleFraction: 1, DriftThreshold: 0.2, ReclusterFraction: 0.5}
	if e.cfg.Maint != want {
		t.Fatalf("zero config resolved to %+v, want %+v", e.cfg.Maint, want)
	}
	if e, err = boot(core.MaintainerConfig{Interval: time.Second}); err != nil {
		t.Fatalf("interval-only config: %v", err)
	}
	if want.Interval = time.Second; e.cfg.Maint != want {
		t.Fatalf("interval-only config resolved to %+v, want %+v", e.cfg.Maint, want)
	}
	if _, err := boot(core.MaintainerConfig{SampleFraction: 1, DriftThreshold: math.NaN(), ReclusterFraction: 1}); err == nil {
		t.Fatal("NaN DriftThreshold accepted")
	}
	set := core.MaintainerConfig{SampleFraction: 0.5, DriftThreshold: 0.05, ReclusterFraction: 1}
	if e, err = boot(set); err != nil {
		t.Fatalf("full config: %v", err)
	}
	set.Interval = time.Minute
	if e.cfg.Maint != set {
		t.Fatalf("full config resolved to %+v, want %+v", e.cfg.Maint, set)
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
	if n := e.Health().StatReports; n != 0 {
		t.Fatalf("rejected batches half-applied: %d reports recorded", n)
	}
	if err := e.Ingest([]CacheStat{{Cache: 0, RTTMS: []float64{1, 2}, Requests: 3}}); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if n := e.Health().StatReports; n != 1 {
		t.Fatalf("StatReports = %d after one valid report, want 1", n)
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

// TestEngineIngestMergeSemantics: within one window a cache's latest RTT
// vector wins and its request counts add up; the next window starts
// empty.
func TestEngineIngestMergeSemantics(t *testing.T) {
	e, err := NewEngine(testConfig(testPlan(8)))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, batch := range [][]CacheStat{
		{{Cache: 3, RTTMS: []float64{10, 20}, Requests: 5}},
		{{Cache: 3, RTTMS: []float64{11, 21}, Requests: 7}, {Cache: 5, RTTMS: []float64{1, 2}}},
	} {
		if err := e.Ingest(batch); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	for window := 1; window <= 2; window++ {
		if _, err := e.Tick(); err != nil {
			t.Fatalf("window %d: Tick: %v", window, err)
		}
		h := e.Health()
		if h.StatReports != 3 || h.IngestedRequests != 12 || h.ReportedCaches != 2 {
			t.Fatalf("window %d: %d reports, %d requests, %d caches; want 3/12/2", window, h.StatReports, h.IngestedRequests, h.ReportedCaches)
		}
	}
	if got := e.features[3]; !slices.Equal(got, cluster.Vector{11, 21}) {
		t.Fatalf("cache 3 features = %v, want the latest report {11 21}", got)
	}
}

// TestEngineIngestTickRace runs concurrent Ingest writers against a Tick
// loop and checks conservation across the swaps: after a final Tick every
// accepted report is counted once in StatReports, and its one request
// once in IngestedRequests, so no report is lost in or counted twice
// across a window swap. Run with -race.
func TestEngineIngestTickRace(t *testing.T) {
	plan := testPlan(8)
	e, err := NewEngine(testConfig(plan))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	const writers, perWriter = 4, 300
	var rounds atomic.Int64 // rounds completed by the Tick loop
	done := make(chan struct{})
	looped := make(chan struct{})
	go func() {
		defer close(looped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Tick(); err != nil {
				t.Errorf("Tick: %v", err)
			}
			rounds.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c := (w + i) % plan.NumCaches()
				s := CacheStat{Cache: c, RTTMS: append([]float64(nil), plan.Points[c]...), Requests: 1}
				if err := e.Ingest([]CacheStat{s}); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
				if i%25 == 24 { // let a round pass, so swaps land between writes
					for seen := rounds.Load(); rounds.Load() == seen; {
						runtime.Gosched()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-looped
	if _, err := e.Tick(); err != nil {
		t.Fatalf("final Tick: %v", err)
	}
	h := e.Health()
	want := int64(writers * perWriter)
	if h.StatReports != want || h.IngestedRequests != want {
		t.Fatalf("after %d concurrent rounds: %d reports, %d requests; want %d each", rounds.Load(), h.StatReports, h.IngestedRequests, want)
	}
	if n := int(rounds.Load()) + 1; h.Rounds != n {
		t.Fatalf("health counts %d rounds, want %d", h.Rounds, n)
	}
}

// TestEngineIngestedRequestsSaturate feeds request counts whose sums
// overflow int64, both within one window (Ingest) and across windows
// (Tick): /healthz must read math.MaxInt64, never wrap
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
// buffer, before or after the next Tick, must not reach a published
// epoch, whether the round re-clustered or updated the plan
// incrementally. The epoch must equal that of a caller that left its
// buffer alone.
func TestEngineEpochOwnsIngestedVectors(t *testing.T) {
	for _, recluster := range []bool{true, false} {
		t.Run(fmt.Sprintf("recluster=%v", recluster), func(t *testing.T) {
			plan := testPlan(8)
			cfg := testConfig(plan)
			if recluster {
				cfg.Maint.ReclusterFraction = 0.5
			}
			round := func(reuse bool) *Epoch {
				batch := statsFor(plan)
				if recluster {
					batch = widespreadDrift(plan)
				} else {
					batch[0].RTTMS = []float64{201, 199}
				}
				scribble := func() {
					for i := range batch {
						batch[i].RTTMS[0] = math.NaN()
					}
				}
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				if err := e.Ingest(batch); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
				if reuse {
					scribble()
				}
				ev, err := e.Tick()
				if err != nil {
					t.Fatalf("Tick: %v", err)
				}
				if ev.Reclustered != recluster {
					t.Fatalf("Reclustered = %v, want %v", ev.Reclustered, recluster)
				}
				if reuse {
					scribble()
				}
				return e.Epoch()
			}
			clean, reused := round(false), round(true)
			if clean.Seq != 2 || reused.Seq != 2 {
				t.Fatalf("epochs %d and %d after the round, want 2", clean.Seq, reused.Seq)
			}
			if got := reused.Plan.Checksum(); got != clean.Checksum || reused.Checksum != clean.Checksum {
				t.Fatalf("published plan follows the caller's buffer: checksum %016x (epoch %016x), want %016x", got, reused.Checksum, clean.Checksum)
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

// TestEngineStartStop: Start is the daemon's only maintenance clock, and
// Stop is idempotent and safe without Start.
func TestEngineStartStop(t *testing.T) {
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.Maint.Interval = 5 * time.Millisecond
	idle, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	idle.Stop() // never started: must not hang
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

// TestEngineConcurrentHammer runs the background Start loop at 1 ms beside
// manual Ticks, drifting Ingest writers, Assign/Epoch readers that
// traverse the whole plan, and Health readers; the -race run is the
// assertion. Drift alternates between isolated (one cache crosses over)
// and widespread (a full re-formation), so both publication paths run.
func TestEngineConcurrentHammer(t *testing.T) {
	plan := testPlan(16)
	cfg := testConfig(plan)
	cfg.Maint.Interval = time.Millisecond
	cfg.Maint.ReclusterFraction = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.Start()
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { // drifting ingest
		batch := statsFor(plan)
		switch i % 3 {
		case 1:
			batch[0].RTTMS = []float64{201, 199}
		case 2:
			for c := range batch {
				batch[c].RTTMS = []float64{float64(500 - 30*c), 100}
			}
		}
		if err := e.Ingest(batch); err != nil {
			t.Errorf("Ingest: %v", err)
		}
	})
	run(func(int) { // manual ticks beside the background loop
		if _, err := e.Tick(); err != nil {
			t.Errorf("Tick: %v", err)
		}
	})
	for w := 0; w < 2; w++ {
		run(func(i int) { // query path
			g, ep, err := e.Assign(i % 16)
			if err != nil || g < 0 || g >= ep.Plan.NumGroups() {
				t.Errorf("Assign(%d) = %d, %v", i%16, g, err)
			}
			var sum float64
			for c, a := range ep.Plan.Assignments {
				sum += ep.Plan.Points[c][0] + float64(a)
			}
			for _, c := range e.Epoch().Plan.Centers {
				sum += c[0]
			}
			_ = sum
		})
	}
	run(func(int) { // health readers
		if h := e.Health(); h.Status != "ok" {
			t.Errorf("health %+v, want ok", h)
		}
	})
	wg.Wait()
	e.Stop()
	ep := e.Epoch()
	if err := ep.Plan.Verify(nil); err != nil {
		t.Fatalf("final epoch %d fails verification: %v", ep.Seq, err)
	}
	if ep.Checksum != ep.Plan.Checksum() {
		t.Fatalf("final epoch %d checksum %016x, plan %016x", ep.Seq, ep.Checksum, ep.Plan.Checksum())
	}
	if h := e.Health(); h.Rounds < 2 || h.ConsecutiveFailures != 0 || ep.Seq < 2 {
		t.Fatalf("after the hammer: epoch %d, health %+v", ep.Seq, h)
	}
}
