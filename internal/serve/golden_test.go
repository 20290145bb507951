package serve

import (
	"errors"
	"fmt"
	"testing"

	"edgecachegroups/internal/core"
)

// TestEngineGolden drives a fixed boot plan through a scripted sequence of
// Ingest/Tick windows and pins every published epoch and every round's
// outcome: isolated drift with a cache that never reported, widespread
// drift that re-clusters through the default re-formation, a first report
// from the silent cache, a window with nothing ingested, and then a second
// engine, booted from the first one's last epoch, whose injected
// re-formation fails before an isolated drift succeeds again.
func TestEngineGolden(t *testing.T) {
	type window struct {
		name  string
		batch []CacheStat
	}
	plan := testPlan(16)
	report := func(skip int, edit func(c int, v []float64) []float64) []CacheStat {
		var batch []CacheStat
		for _, s := range statsFor(plan) {
			if s.Cache == skip {
				continue
			}
			if v := edit(s.Cache, s.RTTMS); v != nil {
				s.RTTMS = v
			}
			batch = append(batch, s)
		}
		return batch
	}
	const silent = 15 // reports for the first time in window 3
	windows := []window{
		{"isolated drift, one cache unreported", report(silent, func(c int, _ []float64) []float64 {
			switch c {
			case 0:
				return []float64{201, 199}
			case 9:
				return []float64{12, 10}
			}
			return nil
		})},
		{"widespread drift re-clusters", report(silent, func(c int, _ []float64) []float64 {
			if c < 8 {
				return []float64{500 + float64(c), 500}
			}
			return []float64{30 + float64(c), 30}
		})},
		{"first report of the silent cache", []CacheStat{{Cache: silent, RTTMS: []float64{498, 502}, Requests: 4}}},
		{"nothing ingested", nil},
	}

	var got []string
	record := func(e *Engine, ev core.MaintainerEvent, err error) {
		ep := e.Epoch()
		got = append(got, fmt.Sprintf("seq=%d sum=%016x round=%d sampled=%d skipped=%d drifted=%d reassigned=%d reclustered=%v failed=%v",
			ep.Seq, ep.Checksum, ev.Round, ev.Sampled, ev.Skipped, len(ev.Drifted), len(ev.Reassigned), ev.Reclustered, err != nil))
	}

	cfg := testConfig(plan)
	cfg.Maint.ReclusterFraction = 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, w := range windows {
		if w.batch != nil {
			if err := e.Ingest(w.batch); err != nil {
				t.Fatalf("%s: Ingest: %v", w.name, err)
			}
		}
		ev, err := e.Tick()
		if err != nil {
			t.Fatalf("%s: Tick: %v", w.name, err)
		}
		record(e, ev, err)
	}
	h := e.Health()
	got = append(got, fmt.Sprintf("rounds=%d reports=%d requests=%d reported=%d",
		h.Rounds, h.StatReports, h.IngestedRequests, h.ReportedCaches))

	// A second engine resumes from the first one's last epoch with a
	// re-formation that always fails: the widespread window fails and keeps
	// the epoch; the isolated window after it publishes again.
	last := e.Epoch()
	cfg2 := testConfig(last.Plan)
	cfg2.Maint.ReclusterFraction = 0.5
	cfg2.ResumeEpoch = last.Seq
	cfg2.Recluster = func() (*core.Plan, error) { return nil, errors.New("quorum lost") }
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatalf("NewEngine (resumed): %v", err)
	}
	for _, batch := range [][]CacheStat{
		report(-1, func(c int, _ []float64) []float64 { return []float64{900 + float64(c), 900} }),
		report(-1, func(c int, _ []float64) []float64 {
			if c == 0 {
				return []float64{13, 10}
			}
			return last.Plan.Points[c]
		}),
	} {
		if err := e2.Ingest(batch); err != nil {
			t.Fatalf("resumed Ingest: %v", err)
		}
		ev, err := e2.Tick()
		record(e2, ev, err)
	}
	h = e2.Health()
	got = append(got, fmt.Sprintf("rounds=%d failures=%d reports=%d requests=%d reported=%d",
		h.Rounds, h.ConsecutiveFailures, h.StatReports, h.IngestedRequests, h.ReportedCaches))

	want := []string{
		"seq=2 sum=2a041bed84660ba7 round=1 sampled=15 skipped=1 drifted=2 reassigned=2 reclustered=false failed=false",
		"seq=3 sum=b27a7b3e28d580d2 round=2 sampled=15 skipped=1 drifted=15 reassigned=0 reclustered=true failed=false",
		"seq=4 sum=0e281d409208009a round=3 sampled=16 skipped=0 drifted=1 reassigned=1 reclustered=false failed=false",
		"seq=4 sum=0e281d409208009a round=4 sampled=16 skipped=0 drifted=0 reassigned=0 reclustered=false failed=false",
		"rounds=4 reports=31 requests=34 reported=16",
		"seq=5 sum=0e281d409208009a round=1 sampled=16 skipped=0 drifted=16 reassigned=0 reclustered=false failed=true",
		"seq=6 sum=f7fd4069509e6fbf round=2 sampled=16 skipped=0 drifted=1 reassigned=1 reclustered=false failed=false",
		"rounds=2 failures=0 reports=32 requests=32 reported=16",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
