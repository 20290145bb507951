package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeLocal:    "local",
		OutcomeGroup:    "group",
		OutcomeOrigin:   "origin",
		OutcomeFailover: "failover",
	} {
		if o.String() != want {
			t.Fatalf("outcome %d string = %q", o, o.String())
		}
	}
	if !strings.Contains(Outcome(99).String(), "Outcome") {
		t.Fatal("unknown outcome string")
	}
}

func TestTraceHookMatchesCounters(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	var traces []RequestTrace
	cfg.TraceFn = func(tr RequestTrace) { traces = append(traces, tr) }
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requests := []workload.Request{
		req(1, 0, 0), // origin fetch, 36ms
		req(2, 0, 0), // local hit, 1ms
		req(3, 1, 0), // group hit at c0, 21ms
	}
	rep, err := sim.Run(requests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(traces)) != rep.Requests() {
		t.Fatalf("%d traces for %d requests", len(traces), rep.Requests())
	}
	counts := make(map[Outcome]int64)
	var latSum float64
	for _, tr := range traces {
		counts[tr.Outcome]++
		latSum += tr.LatencyMS
		if tr.Group != 0 {
			t.Fatalf("trace group = %d, want 0", tr.Group)
		}
		if tr.Doc != 0 {
			t.Fatalf("trace doc = %d", tr.Doc)
		}
	}
	if counts[OutcomeLocal] != rep.LocalHits || counts[OutcomeGroup] != rep.GroupHits ||
		counts[OutcomeOrigin] != rep.OriginFetches {
		t.Fatalf("trace counts %v disagree with report %s", counts, rep)
	}
	if got := latSum / float64(len(traces)); got != rep.MeanLatency() {
		t.Fatalf("trace mean %v != report mean %v", got, rep.MeanLatency())
	}
	// The group hit must name its serving peer.
	found := false
	for _, tr := range traces {
		if tr.Outcome == OutcomeGroup {
			found = true
			if tr.Peer != 0 {
				t.Fatalf("group-hit peer = %d, want 0", tr.Peer)
			}
		} else if tr.Peer != -1 {
			t.Fatalf("non-group trace peer = %d, want -1", tr.Peer)
		}
	}
	if !found {
		t.Fatal("no group-hit trace recorded")
	}
}

func TestTraceHookFailover(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.FailedCaches = []topology.CacheIndex{0}
	var traces []RequestTrace
	cfg.TraceFn = func(tr RequestTrace) { traces = append(traces, tr) }
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]workload.Request{req(1, 0, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Outcome != OutcomeFailover {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestTraceHookRespectsWarmup(t *testing.T) {
	nw := lineNetwork(t)
	cat := fixedCatalog(t, 3)
	cfg := exactConfig()
	cfg.WarmupSec = 1.5
	calls := 0
	cfg.TraceFn = func(RequestTrace) { calls++ }
	sim, err := New(nw, oneGroup(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]workload.Request{req(1, 0, 0), req(2, 0, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("trace called %d times, want 1 (warmup excluded)", calls)
	}
}

// traceStreamHash runs the simulator with cfg over realisticWorkload(seed)
// and folds every TraceFn call, in call order, into one FNV-1a hash over all
// RequestTrace fields (floats by their bit patterns), so both the order and
// the content of the trace stream are pinned.
func traceStreamHash(t *testing.T, seed int64, cfg Config) (uint64, int) {
	t.Helper()
	nw, cat, groups, reqs, ups := realisticWorkload(t, seed)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	calls := 0
	cfg.TraceFn = func(tr RequestTrace) {
		calls++
		put(math.Float64bits(tr.TimeSec))
		put(uint64(tr.Cache))
		put(uint64(tr.Group))
		put(uint64(tr.Doc))
		put(uint64(tr.Outcome))
		put(math.Float64bits(tr.LatencyMS))
		put(uint64(tr.Peer))
	}
	sim, err := New(nw, groups, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(reqs, ups); err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), calls
}

// TestTraceStreamGolden pins the TraceFn stream — every call, in order,
// every field — to literal hashes, for the default model and for push
// invalidation with beacon cooperation.
func TestTraceStreamGolden(t *testing.T) {
	beacons := DefaultConfig()
	beacons.PushInvalidation = true
	beacons.BeaconsPerGroup = 2
	for _, c := range []struct {
		name      string
		cfg       Config
		wantHash  uint64
		wantCalls int
	}{
		{"default", DefaultConfig(), 0x8cb2ecd8d223f8ac, 7271},
		{"push-beacons", beacons, 0x858b83b9746207fe, 7271},
	} {
		got, calls := traceStreamHash(t, 210, c.cfg)
		if got != c.wantHash || calls != c.wantCalls {
			t.Errorf("%s: trace stream hash %#016x over %d calls, want %#016x over %d",
				c.name, got, calls, c.wantHash, c.wantCalls)
		}
	}
}
