package netsim

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

// shardRun is everything a run exposes that must not depend on its shard
// count.
type shardRun struct {
	checksum   uint64
	traces     []RequestTrace
	counters   map[string]int64 // outcome, cache and drop counters
	events     float64          // the sim_events gauge
	latencyObs obs.HistogramSnapshot
}

// runShards runs the logs on the given number of shards with TraceFn and
// Obs attached.
func runShards(t *testing.T, nw *topology.Network, cat *workload.Catalog, groups [][]topology.CacheIndex,
	reqs []workload.Request, ups []workload.Update, cfg Config, shards int) (shardRun, error) {
	t.Helper()
	var out shardRun
	o := obs.New()
	cfg.Obs = o
	cfg.TraceFn = func(tr RequestTrace) { out.traces = append(out.traces, tr) }
	sim, err := New(nw, groups, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.shardCount = shards
	if got := sim.numShards(); got != min(shards, len(groups)) {
		t.Fatalf("asked for %d shards over %d groups, got %d", shards, len(groups), got)
	}
	rep, err := sim.Run(reqs, ups)
	if err != nil {
		return out, err
	}
	out.checksum = rep.Checksum()
	snap := o.Registry().Snapshot()
	out.counters = snap.Counters
	out.events = snap.Gauges["sim_events"]
	out.latencyObs = snap.Histograms["sim_request_latency_ms"]
	return out, nil
}

// diffShardRuns returns what differs between two runs, or "".
func diffShardRuns(a, b shardRun) string {
	var diffs []string
	if a.checksum != b.checksum {
		diffs = append(diffs, "report checksum")
	}
	if !slices.Equal(a.traces, b.traces) {
		diffs = append(diffs, "TraceFn stream")
	}
	if !maps.Equal(a.counters, b.counters) {
		diffs = append(diffs, "obs counters")
	}
	if a.events != b.events {
		diffs = append(diffs, "sim_events")
	}
	if a.latencyObs != b.latencyObs {
		diffs = append(diffs, "latency histogram")
	}
	return strings.Join(diffs, ", ")
}

// TestShardInvariance runs each scenario at several shard counts, up to one
// shard per group, and requires the Report checksum, the whole TraceFn
// stream, the latency histogram, and the outcome, cache and
// cache_drops_total counters to match the one-shard run exactly.
func TestShardInvariance(t *testing.T) {
	nw, cat, groups, reqs, ups := realisticWorkload(t, 310)
	push := DefaultConfig()
	push.PushInvalidation = true
	beacons := DefaultConfig()
	beacons.BeaconsPerGroup = 2
	failed := DefaultConfig()
	failed.FailedCaches = []topology.CacheIndex{3, 17, 40, 41}
	failed.WarmupSec = 30
	lru := DefaultConfig()
	lru.CachePolicy = cache.PolicyLRU
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"push", push},
		{"beacons", beacons},
		{"failed-warmup", failed},
		{"lru", lru},
	} {
		sc.cfg.Verify = true
		base, err := runShards(t, nw, cat, groups, reqs, ups, sc.cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(base.traces) == 0 || base.counters["cache_drops_total"] == 0 {
			t.Fatalf("%s: %d traces and %d drops; the scenario exercises nothing",
				sc.name, len(base.traces), base.counters["cache_drops_total"])
		}
		for _, n := range []int{2, 3, 8, len(groups)} {
			got, err := runShards(t, nw, cat, groups, reqs, ups, sc.cfg, n)
			if err != nil {
				t.Fatalf("%s at %d shards: %v", sc.name, n, err)
			}
			if d := diffShardRuns(base, got); d != "" {
				t.Errorf("%s: %d shards differ from one shard in: %s", sc.name, n, d)
			}
		}
	}
}

// FuzzShardInvariant checks the shard contract on fuzzed logs, where equal
// event times are common: whatever a one-shard run gives — an error, or a
// Report, TraceFn stream and obs record — a three-shard run must give
// exactly the same. Six caches sit in four groups, and every input runs
// with and without beacons and push invalidation.
func FuzzShardInvariant(f *testing.F) {
	f.Add([]byte{4, 0, 0, 4, 1, 0, 0x84, 0, 0, 4, 2, 0, 8, 3, 1, 8, 4, 1, 8, 5, 1})
	f.Add([]byte{12, 1, 2, 4, 0, 2, 0x88, 0, 2, 4, 1, 3, 0x84, 0, 3, 0, 0, 1, 4, 2, 2, 4, 3, 2})
	f.Add([]byte{4, 0xfe, 0, 0x84, 0, 0xff})
	groups := [][]topology.CacheIndex{{0, 1}, {2, 3}, {4}, {5}}
	f.Fuzz(func(t *testing.T, data []byte) {
		const numDocs = 4
		nw := starNetwork(t, 6)
		cat := fixedCatalog(t, numDocs)
		reqs, ups := decodeLogs(data, 6, numDocs)
		for _, beacons := range []int{0, 1} {
			for _, push := range []bool{false, true} {
				cfg := exactConfig()
				cfg.CacheCapacityKB = 25 // two 10 KB documents: evictions are common
				cfg.BeaconsPerGroup = beacons
				cfg.PushInvalidation = push
				cfg.Verify = true
				one, err := runShards(t, nw, cat, groups, reqs, ups, cfg, 1)
				three, err3 := runShards(t, nw, cat, groups, reqs, ups, cfg, 3)
				if (err == nil) != (err3 == nil) {
					t.Fatalf("beacons=%d push=%v: one shard error %v, three shards error %v", beacons, push, err, err3)
				}
				if err != nil {
					continue
				}
				if d := diffShardRuns(one, three); d != "" {
					t.Fatalf("beacons=%d push=%v: three shards differ from one in: %s", beacons, push, d)
				}
			}
		}
	})
}
