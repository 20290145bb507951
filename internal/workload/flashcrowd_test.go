package workload

import (
	"math"
	"sort"
	"testing"

	"edgecachegroups/internal/simrand"
)

func testFlashCrowd(t *testing.T) (*Catalog, *FlashCrowd) {
	t.Helper()
	c := testCatalog(t, 50)
	params := FlashCrowdParams{
		StartSec:         100,
		EndSec:           200,
		HotDocs:          5,
		Share:            0.7,
		RateBoost:        3,
		UpdateRatePerSec: 0.2,
	}
	fc, err := NewFlashCrowd(c, params, simrand.New(51))
	if err != nil {
		t.Fatal(err)
	}
	return c, fc
}

func TestFlashCrowdParamsValidate(t *testing.T) {
	base := FlashCrowdParams{StartSec: 10, EndSec: 20, HotDocs: 5, Share: 0.5, RateBoost: 2}
	if err := base.Validate(100); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*FlashCrowdParams)
	}{
		{"negative start", func(p *FlashCrowdParams) { p.StartSec = -1 }},
		{"end before start", func(p *FlashCrowdParams) { p.EndSec = 5 }},
		{"no hot docs", func(p *FlashCrowdParams) { p.HotDocs = 0 }},
		{"too many hot docs", func(p *FlashCrowdParams) { p.HotDocs = 101 }},
		{"bad share", func(p *FlashCrowdParams) { p.Share = 1.5 }},
		{"boost below one", func(p *FlashCrowdParams) { p.RateBoost = 0.5 }},
		{"negative update rate", func(p *FlashCrowdParams) { p.UpdateRatePerSec = -1 }},
		{"NaN start", func(p *FlashCrowdParams) { p.StartSec = math.NaN() }},
		{"NaN end", func(p *FlashCrowdParams) { p.EndSec = math.NaN() }},
		{"infinite end", func(p *FlashCrowdParams) { p.EndSec = math.Inf(1) }},
		{"NaN share", func(p *FlashCrowdParams) { p.Share = math.NaN() }},
		{"NaN boost", func(p *FlashCrowdParams) { p.RateBoost = math.NaN() }},
		{"infinite boost", func(p *FlashCrowdParams) { p.RateBoost = math.Inf(1) }},
		{"NaN update rate", func(p *FlashCrowdParams) { p.UpdateRatePerSec = math.NaN() }},
		{"infinite update rate", func(p *FlashCrowdParams) { p.UpdateRatePerSec = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(100); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewFlashCrowdHotSet(t *testing.T) {
	_, fc := testFlashCrowd(t)
	if len(fc.HotSet) != 5 {
		t.Fatalf("hot set size = %d", len(fc.HotSet))
	}
	if !sort.SliceIsSorted(fc.HotSet, func(a, b int) bool { return fc.HotSet[a] < fc.HotSet[b] }) {
		t.Fatal("hot set not sorted")
	}
	seen := make(map[DocID]bool)
	for _, d := range fc.HotSet {
		if seen[d] {
			t.Fatalf("duplicate hot doc %d", d)
		}
		seen[d] = true
	}
}

func TestFlashCrowdRequestsConcentrateInWindow(t *testing.T) {
	_, fc := testFlashCrowd(t)
	base := TraceParams{DurationSec: 300, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := fc.GenerateRequests(10, base, simrand.New(52))
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[DocID]bool, len(fc.HotSet))
	for _, d := range fc.HotSet {
		hot[d] = true
	}
	var inWin, inWinHot, outWin, outWinHot int
	for _, r := range reqs {
		if r.TimeSec >= 100 && r.TimeSec < 200 {
			inWin++
			if hot[r.Doc] {
				inWinHot++
			}
		} else {
			outWin++
			if hot[r.Doc] {
				outWinHot++
			}
		}
	}
	// Rate boost: the 100s window should carry far more than 1/3 of the
	// 300s trace's requests.
	if float64(inWin) < float64(outWin) {
		t.Fatalf("window requests %d not boosted vs outside %d", inWin, outWin)
	}
	// Hot-set share inside the window ~70%; outside it's tiny (5/2000).
	inShare := float64(inWinHot) / float64(inWin)
	outShare := float64(outWinHot) / float64(outWin)
	if inShare < 0.5 {
		t.Fatalf("hot share in window = %v, want >= 0.5", inShare)
	}
	if outShare > 0.1 {
		t.Fatalf("hot share outside window = %v, want < 0.1", outShare)
	}
	if !sort.SliceIsSorted(reqs, func(a, b int) bool { return reqs[a].TimeSec < reqs[b].TimeSec }) {
		t.Fatal("requests not time-ordered")
	}
}

func TestFlashCrowdUpdatesTargetHotSet(t *testing.T) {
	_, fc := testFlashCrowd(t)
	ups, err := fc.GenerateUpdates(300, simrand.New(53))
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[DocID]bool, len(fc.HotSet))
	for _, d := range fc.HotSet {
		hot[d] = true
	}
	var hotInWin int
	for _, u := range ups {
		if hot[u.Doc] && u.TimeSec >= 100 && u.TimeSec < 200 {
			hotInWin++
		}
	}
	// 5 docs * 100s * 0.2/s = ~100 episode updates.
	if hotInWin < 50 {
		t.Fatalf("only %d hot-set updates in window, want ~100", hotInWin)
	}
	if !sort.SliceIsSorted(ups, func(a, b int) bool { return ups[a].TimeSec < ups[b].TimeSec }) {
		t.Fatal("updates not time-ordered")
	}
}

func TestFlashCrowdErrors(t *testing.T) {
	c := testCatalog(t, 54)
	bad := FlashCrowdParams{StartSec: 10, EndSec: 5, HotDocs: 1, Share: 0.5, RateBoost: 1}
	if _, err := NewFlashCrowd(c, bad, simrand.New(55)); err == nil {
		t.Fatal("bad params accepted")
	}
	_, fc := testFlashCrowd(t)
	if _, err := fc.GenerateRequests(0, DefaultTraceParams(), simrand.New(56)); err == nil {
		t.Fatal("zero caches accepted")
	}
	badTrace := DefaultTraceParams()
	badTrace.DurationSec = -1
	if _, err := fc.GenerateRequests(5, badTrace, simrand.New(57)); err == nil {
		t.Fatal("bad trace params accepted")
	}
}
