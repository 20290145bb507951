package workload

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"edgecachegroups/internal/simrand"
)

func testCatalog(t *testing.T, seed int64) *Catalog {
	t.Helper()
	c, err := NewCatalog(DefaultCatalogParams(), simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogParamsValidate(t *testing.T) {
	if err := DefaultCatalogParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*CatalogParams)
	}{
		{"no docs", func(p *CatalogParams) { p.NumDocuments = 0 }},
		{"negative alpha", func(p *CatalogParams) { p.ZipfAlpha = -1 }},
		{"zero size", func(p *CatalogParams) { p.MeanSizeKB = 0 }},
		{"negative sigma", func(p *CatalogParams) { p.SizeSigma = -0.1 }},
		{"bad dynamic fraction", func(p *CatalogParams) { p.DynamicFraction = 1.5 }},
		{"inverted rates", func(p *CatalogParams) { p.UpdateRateMin = 1; p.UpdateRateMax = 0.5 }},
		{"negative rate", func(p *CatalogParams) { p.UpdateRateMin = -1 }},
		{"NaN alpha", func(p *CatalogParams) { p.ZipfAlpha = math.NaN() }},
		{"infinite alpha", func(p *CatalogParams) { p.ZipfAlpha = math.Inf(1) }},
		{"NaN size", func(p *CatalogParams) { p.MeanSizeKB = math.NaN() }},
		{"infinite size", func(p *CatalogParams) { p.MeanSizeKB = math.Inf(1) }},
		{"NaN sigma", func(p *CatalogParams) { p.SizeSigma = math.NaN() }},
		{"infinite sigma", func(p *CatalogParams) { p.SizeSigma = math.Inf(1) }},
		{"NaN dynamic fraction", func(p *CatalogParams) { p.DynamicFraction = math.NaN() }},
		{"NaN min rate", func(p *CatalogParams) { p.UpdateRateMin = math.NaN() }},
		{"NaN max rate", func(p *CatalogParams) { p.UpdateRateMax = math.NaN() }},
		{"infinite max rate", func(p *CatalogParams) { p.UpdateRateMax = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultCatalogParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestNewCatalogShape(t *testing.T) {
	c := testCatalog(t, 1)
	if c.NumDocuments() != 2000 {
		t.Fatalf("NumDocuments = %d", c.NumDocuments())
	}
	dynamic := 0
	for i := 0; i < c.NumDocuments(); i++ {
		d, err := c.Doc(DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		if d.SizeKB <= 0 {
			t.Fatalf("doc %d has size %v", i, d.SizeKB)
		}
		if d.UpdateRatePerSec < 0 {
			t.Fatalf("doc %d has negative update rate", i)
		}
		if d.UpdateRatePerSec > 0 {
			dynamic++
		}
	}
	frac := float64(dynamic) / 2000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dynamic fraction = %v, want ~0.3", frac)
	}
	mean := c.MeanSizeKB()
	if mean < 8 || mean > 16 {
		t.Fatalf("mean size = %v, want ~12", mean)
	}
	if _, err := c.Doc(DocID(-1)); err == nil {
		t.Fatal("negative DocID accepted")
	}
	if _, err := c.Doc(DocID(2000)); err == nil {
		t.Fatal("out-of-range DocID accepted")
	}
}

func TestSampleGlobalIsZipfSkewed(t *testing.T) {
	c := testCatalog(t, 2)
	src := simrand.New(3)
	counts := make(map[DocID]int)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[c.SampleGlobal(src)]++
	}
	// Top-10 documents should dominate a uniform share by a wide margin.
	var top10 int
	for d := DocID(0); d < 10; d++ {
		top10 += counts[d]
	}
	uniformShare := float64(trials) * 10 / 2000
	if float64(top10) < uniformShare*5 {
		t.Fatalf("top-10 share %d not Zipf-skewed (uniform would be %v)", top10, uniformShare)
	}
}

func TestTraceParamsValidate(t *testing.T) {
	if err := DefaultTraceParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []TraceParams{
		{DurationSec: 0, RequestRatePerCache: 1, Similarity: 0.5},
		{DurationSec: 10, RequestRatePerCache: 0, Similarity: 0.5},
		{DurationSec: 10, RequestRatePerCache: 1, Similarity: -0.1},
		{DurationSec: 10, RequestRatePerCache: 1, Similarity: 1.1},
		{DurationSec: math.NaN(), RequestRatePerCache: 1, Similarity: 0.5},
		{DurationSec: math.Inf(1), RequestRatePerCache: 1, Similarity: 0.5},
		{DurationSec: 10, RequestRatePerCache: math.NaN(), Similarity: 0.5},
		{DurationSec: 10, RequestRatePerCache: math.Inf(1), Similarity: 0.5},
		{DurationSec: 10, RequestRatePerCache: 1, Similarity: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

func TestGenerateRequestsShape(t *testing.T) {
	c := testCatalog(t, 4)
	params := TraceParams{DurationSec: 100, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := GenerateRequests(c, 10, params, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~10 caches * 100s * 1/s = ~1000 requests.
	if len(reqs) < 700 || len(reqs) > 1300 {
		t.Fatalf("got %d requests, want ~1000", len(reqs))
	}
	if !sort.SliceIsSorted(reqs, func(a, b int) bool { return reqs[a].TimeSec < reqs[b].TimeSec }) {
		t.Fatal("requests not time-ordered")
	}
	seenCache := make(map[int]bool)
	for _, r := range reqs {
		if r.TimeSec < 0 || r.TimeSec >= 100 {
			t.Fatalf("request time %v out of range", r.TimeSec)
		}
		if int(r.Cache) < 0 || int(r.Cache) >= 10 {
			t.Fatalf("request cache %d out of range", r.Cache)
		}
		if int(r.Doc) < 0 || int(r.Doc) >= c.NumDocuments() {
			t.Fatalf("request doc %d out of range", r.Doc)
		}
		seenCache[int(r.Cache)] = true
	}
	if len(seenCache) != 10 {
		t.Fatalf("only %d caches issued requests", len(seenCache))
	}
}

func TestGenerateRequestsErrors(t *testing.T) {
	c := testCatalog(t, 6)
	if _, err := GenerateRequests(c, 0, DefaultTraceParams(), simrand.New(7)); err == nil {
		t.Fatal("zero caches accepted")
	}
	bad := DefaultTraceParams()
	bad.DurationSec = -1
	if _, err := GenerateRequests(c, 5, bad, simrand.New(7)); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestRequestSimilarityAcrossCaches(t *testing.T) {
	c := testCatalog(t, 8)
	params := TraceParams{DurationSec: 400, RequestRatePerCache: 2, Similarity: 0.9}
	reqs, err := GenerateRequests(c, 2, params, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// Hot-set overlap: the top-20 docs of the two caches should overlap
	// strongly at 0.9 similarity.
	top := func(cache int) map[DocID]bool {
		counts := make(map[DocID]int)
		for _, r := range reqs {
			if int(r.Cache) == cache {
				counts[r.Doc]++
			}
		}
		type kv struct {
			d DocID
			n int
		}
		var list []kv
		for d, n := range counts {
			list = append(list, kv{d, n})
		}
		sort.Slice(list, func(a, b int) bool {
			if list[a].n != list[b].n {
				return list[a].n > list[b].n
			}
			return list[a].d < list[b].d
		})
		out := make(map[DocID]bool)
		for i := 0; i < 20 && i < len(list); i++ {
			out[list[i].d] = true
		}
		return out
	}
	t0, t1 := top(0), top(1)
	overlap := 0
	for d := range t0 {
		if t1[d] {
			overlap++
		}
	}
	if overlap < 10 {
		t.Fatalf("hot-set overlap %d/20, want >= 10 at similarity 0.9", overlap)
	}
}

func TestGenerateUpdatesShape(t *testing.T) {
	c := testCatalog(t, 10)
	ups, err := GenerateUpdates(c, 1000, simrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("no updates generated for a 30 percent dynamic catalog")
	}
	if !sort.SliceIsSorted(ups, func(a, b int) bool { return ups[a].TimeSec < ups[b].TimeSec }) {
		t.Fatal("updates not time-ordered")
	}
	for _, u := range ups {
		d, err := c.Doc(u.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if d.UpdateRatePerSec == 0 {
			t.Fatalf("static document %d updated", u.Doc)
		}
		if u.TimeSec < 0 || u.TimeSec >= 1000 {
			t.Fatalf("update time %v out of range", u.TimeSec)
		}
	}
	for _, d := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := GenerateUpdates(c, d, simrand.New(11)); err == nil {
			t.Fatalf("duration %v accepted", d)
		}
	}
}

func TestUpdateRateMatchesExpectation(t *testing.T) {
	// Build a catalog where every doc updates at exactly 0.01/s.
	params := CatalogParams{
		NumDocuments:    100,
		ZipfAlpha:       0.8,
		MeanSizeKB:      10,
		SizeSigma:       0,
		DynamicFraction: 1,
		UpdateRateMin:   0.01,
		UpdateRateMax:   0.01,
	}
	c, err := NewCatalog(params, simrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := GenerateUpdates(c, 10000, simrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	// Expect 100 docs * 10000s * 0.01/s = 10000 updates (+-10%).
	if len(ups) < 9000 || len(ups) > 11000 {
		t.Fatalf("got %d updates, want ~10000", len(ups))
	}
}

func TestTraceDeterminism(t *testing.T) {
	c := testCatalog(t, 14)
	params := TraceParams{DurationSec: 50, RequestRatePerCache: 1, Similarity: 0.7}
	a, err := GenerateRequests(c, 5, params, simrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRequests(c, 5, params, simrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := testCatalog(t, 16)
	params := TraceParams{DurationSec: 20, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := GenerateRequests(c, 3, params, simrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRequestsJSONL(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], reqs[i])
		}
	}

	ups, err := GenerateUpdates(c, 100, simrand.New(18))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteUpdatesJSONL(&buf, ups); err != nil {
		t.Fatal(err)
	}
	gotUps, err := ReadUpdatesJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotUps) != len(ups) {
		t.Fatalf("updates round trip length %d, want %d", len(gotUps), len(ups))
	}
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	c := testCatalog(t, 19)
	var buf bytes.Buffer
	if err := WriteCatalogJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalogJSON(&buf, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocuments() != c.NumDocuments() {
		t.Fatalf("catalog size %d, want %d", got.NumDocuments(), c.NumDocuments())
	}
	for i := 0; i < c.NumDocuments(); i += 97 {
		a, err := c.Doc(DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Doc(DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("doc %d mismatch", i)
		}
	}
}

func TestReadCatalogJSONErrors(t *testing.T) {
	if _, err := ReadCatalogJSON(bytes.NewBufferString("[]"), 0.8); err == nil {
		t.Fatal("empty catalog accepted")
	}
	if _, err := ReadCatalogJSON(bytes.NewBufferString("not json"), 0.8); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCatalogJSON(bytes.NewBufferString(`[{"id":5,"sizeKB":1}]`), 0.8); err == nil {
		t.Fatal("sparse IDs accepted")
	}
	if _, err := ReadCatalogJSON(bytes.NewBufferString(`[{"id":0,"sizeKB":0}]`), 0.8); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := ReadCatalogJSON(bytes.NewBufferString(`[{"id":0,"sizeKB":1,"updateRatePerSec":-1}]`), 0.8); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestReadRequestsJSONLGarbage(t *testing.T) {
	if _, err := ReadRequestsJSONL(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("garbage request log accepted")
	}
	if _, err := ReadUpdatesJSONL(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("garbage update log accepted")
	}
}

func TestRequestDocAlwaysInRangeProperty(t *testing.T) {
	c := testCatalog(t, 20)
	f := func(seed int64) bool {
		params := TraceParams{DurationSec: 10, RequestRatePerCache: 2, Similarity: 0.5}
		reqs, err := GenerateRequests(c, 3, params, simrand.New(seed))
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if int(r.Doc) < 0 || int(r.Doc) >= c.NumDocuments() {
				return false
			}
			if math.IsNaN(r.TimeSec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
