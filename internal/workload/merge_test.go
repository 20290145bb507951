package workload

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// TestGeneratorsMatchStableSort checks the four merging generators element
// for element against the stable-sort generators they replaced, including a
// flash crowd whose window runs past the trace's end.
func TestGeneratorsMatchStableSort(t *testing.T) {
	params := FlashCrowdParams{StartSec: 80, EndSec: 400, HotDocs: 6, Share: 0.6, RateBoost: 3, UpdateRatePerSec: 0.5}
	tp := TraceParams{DurationSec: 120, RequestRatePerCache: 0.8, Similarity: 0.7}
	for seed := int64(1); seed <= 3; seed++ {
		c := testCatalog(t, seed)
		fc, err := NewFlashCrowd(c, params, simrand.New(seed+10))
		if err != nil {
			t.Fatal(err)
		}
		for _, caches := range []int{1, 7, 500} {
			name := fmt.Sprintf("seed=%d/caches=%d", seed, caches)
			got, err := GenerateRequests(c, caches, tp, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := sortedGenerateRequests(c, caches, tp, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkSameTrace(t, name+"/requests", got, want)

			got, err = fc.GenerateRequests(caches, tp, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err = sortedFlashRequests(fc, caches, tp, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkSameTrace(t, name+"/flash-requests", got, want)
		}
		ups, err := GenerateUpdates(c, tp.DurationSec, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		wantUps, err := sortedGenerateUpdates(c, tp.DurationSec, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkSameTrace(t, fmt.Sprintf("seed=%d/updates", seed), ups, wantUps)

		ups, err = fc.GenerateUpdates(tp.DurationSec, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		wantUps, err = sortedFlashUpdates(fc, tp.DurationSec, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkSameTrace(t, fmt.Sprintf("seed=%d/flash-updates", seed), ups, wantUps)
	}
}

func checkSameTrace[T comparable](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference trace is empty", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// timed is FuzzMergeRuns' element: a time and the element's position in
// the concatenation of the runs, so an order mismatch shows in the values.
type timed struct {
	t   float64
	pos int
}

// FuzzMergeRuns builds runs from bytes, with times repeated within a run
// and across runs, and checks mergeRuns against a stable sort of the runs'
// concatenation. Byte 0 sets the run count (1 to 16); each further byte
// adds to one run, picked by its low four bits, a time step of its high
// four bits in quarters, so a zero step repeats the run's previous time.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{2, 0x00, 0x01, 0x00, 0x01, 0x10, 0x11})
	f.Add([]byte{3, 0x00, 0x01, 0x02, 0x10, 0x11, 0x12, 0x00, 0x01})
	f.Add([]byte{0})
	f.Add([]byte{15, 0xf0, 0x0f, 0x3f, 0x00, 0x20, 0x2f, 0x0f, 0x10, 0x01, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runs := make([][]timed, 1+int(data[0])%16)
		last := make([]float64, len(runs))
		for _, b := range data[1:] {
			r := int(b&0x0f) % len(runs)
			last[r] += float64(b>>4) / 4
			runs[r] = append(runs[r], timed{t: last[r]})
		}
		var concat []timed
		for _, run := range runs {
			for i := range run {
				run[i].pos = len(concat)
				concat = append(concat, run[i])
			}
		}
		want := slices.Clone(concat)
		slices.SortStableFunc(want, func(a, b timed) int { return cmp.Compare(a.t, b.t) })
		got := mergeRuns(runs, func(e timed) float64 { return e.t })
		if !slices.Equal(got, want) {
			t.Fatalf("mergeRuns(%v) = %v, stable sort %v", runs, got, want)
		}
		if len(concat) > 0 && len(got) != cap(got) {
			t.Fatalf("merged %d elements into capacity %d", len(got), cap(got))
		}
	})
}

// The generators as they were before they merged their runs: each builds
// its runs back to back and stable-sorts the concatenation by time.

func sortedGenerateRequests(c *Catalog, numCaches int, params TraceParams, src *simrand.Source) ([]Request, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if numCaches < 1 {
		return nil, fmt.Errorf("workload: numCaches must be >= 1, got %d", numCaches)
	}
	var out []Request
	for i := 0; i < numCaches; i++ {
		cacheSrc := src.SplitN("cache", i)
		lp := newLocalProfile(c.NumDocuments(), cacheSrc.Split("perm"))
		t := 0.0
		for {
			t += cacheSrc.Exponential(params.RequestRatePerCache)
			if t >= params.DurationSec {
				break
			}
			var doc DocID
			if cacheSrc.Float64() < params.Similarity {
				doc = c.SampleGlobal(cacheSrc)
			} else {
				doc = lp.sample(c, cacheSrc)
			}
			out = append(out, Request{TimeSec: t, Cache: topology.CacheIndex(i), Doc: doc})
		}
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return out, nil
}

func sortedGenerateUpdates(c *Catalog, durationSec float64, src *simrand.Source) ([]Update, error) {
	if durationSec <= 0 {
		return nil, fmt.Errorf("workload: durationSec must be > 0, got %v", durationSec)
	}
	var out []Update
	for i := 0; i < c.NumDocuments(); i++ {
		doc := c.docs[i]
		if doc.UpdateRatePerSec <= 0 {
			continue
		}
		docSrc := src.SplitN("doc", i)
		t := 0.0
		for {
			t += docSrc.Exponential(doc.UpdateRatePerSec)
			if t >= durationSec {
				break
			}
			out = append(out, Update{TimeSec: t, Doc: doc.ID})
		}
	}
	slices.SortStableFunc(out, func(a, b Update) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return out, nil
}

func sortedFlashRequests(fc *FlashCrowd, numCaches int, base TraceParams, src *simrand.Source) ([]Request, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if numCaches < 1 {
		return nil, fmt.Errorf("workload: numCaches must be >= 1, got %d", numCaches)
	}
	var out []Request
	for i := 0; i < numCaches; i++ {
		cacheSrc := src.SplitN("cache", i)
		lp := newLocalProfile(fc.catalog.NumDocuments(), cacheSrc.Split("perm"))
		t := 0.0
		for {
			rate := base.RequestRatePerCache
			inEpisode := t >= fc.Params.StartSec && t < fc.Params.EndSec
			if inEpisode {
				rate *= fc.Params.RateBoost
			}
			t += cacheSrc.Exponential(rate)
			if t >= base.DurationSec {
				break
			}
			inEpisode = t >= fc.Params.StartSec && t < fc.Params.EndSec
			var doc DocID
			switch {
			case inEpisode && cacheSrc.Float64() < fc.Params.Share:
				doc = fc.HotSet[cacheSrc.Intn(len(fc.HotSet))]
			case cacheSrc.Float64() < base.Similarity:
				doc = fc.catalog.SampleGlobal(cacheSrc)
			default:
				doc = lp.sample(fc.catalog, cacheSrc)
			}
			out = append(out, Request{TimeSec: t, Cache: topology.CacheIndex(i), Doc: doc})
		}
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return out, nil
}

func sortedFlashUpdates(fc *FlashCrowd, durationSec float64, src *simrand.Source) ([]Update, error) {
	out, err := sortedGenerateUpdates(fc.catalog, durationSec, src.Split("base"))
	if err != nil {
		return nil, err
	}
	if fc.Params.UpdateRatePerSec > 0 {
		end := fc.Params.EndSec
		if end > durationSec {
			end = durationSec
		}
		for i, doc := range fc.HotSet {
			docSrc := src.SplitN("hot", i)
			t := fc.Params.StartSec
			for {
				t += docSrc.Exponential(fc.Params.UpdateRatePerSec)
				if t >= end {
					break
				}
				out = append(out, Update{TimeSec: t, Doc: doc})
			}
		}
		slices.SortStableFunc(out, func(a, b Update) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	}
	return out, nil
}
