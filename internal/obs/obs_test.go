package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	o := New()
	c := o.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := o.Counter("reqs_total"); again != c {
		t.Fatal("second Counter call returned a different cell")
	}
	g := o.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilHandlesNoop(t *testing.T) {
	var o *Obs
	// None of these may panic, and all reads must be zero.
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Record(1)
	o.Emit(Event{Kind: KindCacheEvict})
	o.EmitNow(KindProtocolRound, "r", 1)
	o.StartSpan("s")()
	if o.Counter("x").Value() != 0 || o.Gauge("x").Value() != 0 || o.Histogram("x").Count() != 0 {
		t.Fatal("nil handles returned nonzero values")
	}
	if o.Trace().Len() != 0 || o.Trace().Dropped() != 0 || o.Trace().Events() != nil {
		t.Fatal("nil trace sink not empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"probe-features":   "probe_features",
		"ok_name:42":       "ok_name:42",
		"9lead":            "_lead",
		"":                 "_",
		"latency ms (p99)": "latency_ms__p99_",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramAggregates(t *testing.T) {
	o := New()
	h := o.Histogram("lat_ms")
	vals := []float64{0.25, 1, 2, 4, 8, 100, 1000}
	var sum float64
	for _, v := range vals {
		h.Record(v)
		sum += v
	}
	h.Record(-3)         // dropped
	h.Record(math.NaN()) // dropped
	if got := h.Count(); got != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", got, len(vals))
	}
	if got := h.Sum(); got != sum {
		t.Fatalf("sum = %v, want %v", got, sum)
	}
	if got := h.Min(); got != 0.25 {
		t.Fatalf("min = %v, want 0.25", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("max = %v, want 1000", got)
	}
}

// TestHistogramQuantileError pins the bucket resolution: every quantile
// is an upper bound within one sub-bucket (1/16 ≈ 6.25%) of the exact
// sample.
func TestHistogramQuantileError(t *testing.T) {
	h := newHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(float64(i) * 0.1) // 0.1ms .. 1000ms uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := math.Ceil(q*n) * 0.1
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%v: %v below exact %v (must be an upper bound)", q, got, exact)
		}
		if got > exact*(1+2.0/histSubBuckets) {
			t.Errorf("q=%v: %v exceeds exact %v by more than bucket width", q, got, exact)
		}
	}
	if got := h.Quantile(0); got <= 0 {
		t.Errorf("q=0 returned %v, want positive bucket bound", got)
	}
}

func TestHistogramEdgeClamping(t *testing.T) {
	h := newHistogram()
	h.Record(0)     // bucket 0
	h.Record(1e-12) // far below range: clamps to bucket 0
	h.Record(1e12)  // far above range: clamps to last bucket
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got, want := bucketOf(1e-12), 0; got != want {
		t.Fatalf("bucketOf(1e-12) = %d, want %d", got, want)
	}
	if got, want := bucketOf(1e12), histNumBuckets-1; got != want {
		t.Fatalf("bucketOf(1e12) = %d, want %d", got, want)
	}
	// Bucket index must be monotone in the sample value.
	prev := -1
	for v := 1e-4; v < 1e7; v *= 1.07 {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at v=%v: %d < %d", v, idx, prev)
		}
		prev = idx
	}
	// Upper bound really bounds: for in-range v, v <= bucketUpper(bucketOf(v)).
	for v := 1e-2; v < 1e6; v *= 1.13 {
		if up := bucketUpper(bucketOf(v)); v > up {
			t.Fatalf("v=%v above its bucket upper bound %v", v, up)
		}
	}
}

// TestHistogramRecordAllocFree is the tentpole's hard requirement: the
// record path must not allocate, enabled or disabled.
func TestHistogramRecordAllocFree(t *testing.T) {
	o := New()
	h := o.Histogram("lat_ms")
	if avg := testing.AllocsPerRun(1000, func() { h.Record(3.7) }); avg != 0 {
		t.Fatalf("enabled Record allocates %v allocs/op, want 0", avg)
	}
	var off *Histogram
	if avg := testing.AllocsPerRun(1000, func() { off.Record(3.7) }); avg != 0 {
		t.Fatalf("disabled Record allocates %v allocs/op, want 0", avg)
	}
	c := o.Counter("n")
	if avg := testing.AllocsPerRun(1000, func() { c.Inc() }); avg != 0 {
		t.Fatalf("Counter.Inc allocates %v allocs/op, want 0", avg)
	}
	var nilObs *Obs
	if avg := testing.AllocsPerRun(1000, func() { nilObs.StartSpan("x")() }); avg != 0 {
		t.Fatalf("disabled StartSpan allocates %v allocs/op, want 0", avg)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := newHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var want float64
	for w := 1; w <= workers; w++ {
		want += float64(w) * per
	}
	if got := h.Sum(); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Min() != 1 || h.Max() != workers {
		t.Fatalf("min/max = %v/%v, want 1/%d", h.Min(), h.Max(), workers)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	s := NewTraceSink(4)
	for i := 0; i < 6; i++ {
		s.Emit(Event{Kind: KindCacheEvict, Value: int64(i), Cache: -1})
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := s.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	evs := s.Events()
	for i, e := range evs {
		if want := int64(i + 2); e.Value != want {
			t.Fatalf("event %d value = %d, want %d (oldest-first)", i, e.Value, want)
		}
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	s := NewTraceSink(8)
	s.Emit(Event{Kind: KindCacheEvict, Name: "doc", TimeSec: 1.5, Value: 9, Cache: 0})
	s.Emit(Event{Kind: KindCacheEvict, TimeSec: 2.0, DurMS: 500, Cache: -1})
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var back []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, e)
	}
	if len(back) != 2 {
		t.Fatalf("round-tripped %d events, want 2", len(back))
	}
	if back[0].Cache != 0 || back[1].Cache != -1 {
		t.Fatalf("cache indices lost in round trip: %+v", back)
	}
	if back[0] != (Event{Kind: KindCacheEvict, Name: "doc", TimeSec: 1.5, Value: 9, Cache: 0}) {
		t.Fatalf("event 0 mangled: %+v", back[0])
	}
}

func TestStartSpanEmitsPair(t *testing.T) {
	o := New()
	done := o.StartSpan("probe-features")
	time.Sleep(time.Millisecond)
	done()
	evs := o.Trace().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindStageBegin || evs[1].Kind != KindStageEnd {
		t.Fatalf("kinds = %v, %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[1].DurMS <= 0 {
		t.Fatalf("span duration %v, want > 0", evs[1].DurMS)
	}
	h := o.Registry().Snapshot().Histograms["stage_probe_features_ms"]
	if h.Count != 1 || h.Sum != evs[1].DurMS {
		t.Fatalf("stage_probe_features_ms = %+v, want one sample of %v", h, evs[1].DurMS)
	}
}

// TestStartSpanConcurrent pins the span histogram's concurrency
// contract: spans closed from many goroutines on one Obs all land in the
// one stage_<name>_ms histogram, with no lost update (run under -race).
func TestStartSpanConcurrent(t *testing.T) {
	o := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.StartSpan("x")()
			}
		}()
	}
	wg.Wait()
	if got := o.Registry().Snapshot().Histograms["stage_x_ms"].Count; got != workers*per {
		t.Fatalf("stage_x_ms count = %d, want %d", got, workers*per)
	}
}

func TestPrometheusExposition(t *testing.T) {
	o := New()
	o.Counter("cache_hits_total").Add(7)
	o.Gauge("sim_events").Set(4)
	h := o.Histogram("request_latency_ms")
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, o.Registry()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE cache_hits_total counter\ncache_hits_total 7\n",
		"# TYPE sim_events gauge\nsim_events 4\n",
		"# TYPE request_latency_ms summary\n",
		"request_latency_ms{quantile=\"0.5\"} ",
		"request_latency_ms_count 100\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Counters before gauges before histograms, names sorted: rendering
	// must be deterministic.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, o.Registry()); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("two renders of equal state differ")
	}
	// Every non-comment line must be "<name>[{label}] <value>".
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := New()
	o.Counter("cache_hits_total").Inc()
	o.Histogram("request_latency_ms").Record(12)
	o.Emit(Event{Kind: KindCacheEvict, TimeSec: 3, Cache: -1})
	o.EmitNow(KindProtocolRound, "plset", 42)
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(metrics, "cache_hits_total 1") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}

	vars, ctype := get("/debug/vars")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/debug/vars content type %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(vars), &snap); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if snap.Counters["cache_hits_total"] != 1 {
		t.Errorf("/debug/vars counters = %v", snap.Counters)
	}
	if snap.Histograms["request_latency_ms"].Count != 1 {
		t.Errorf("/debug/vars histograms = %v", snap.Histograms)
	}

	trace, _ := get("/trace")
	if n := strings.Count(trace, "\n"); n != 2 {
		t.Errorf("/trace has %d lines, want 2:\n%s", n, trace)
	}
	filtered, _ := get("/trace?kind=" + string(KindProtocolRound))
	if n := strings.Count(filtered, "\n"); n != 1 {
		t.Errorf("/trace?kind= has %d lines, want 1:\n%s", n, filtered)
	}
	var e Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(filtered)), &e); err != nil {
		t.Fatalf("filtered trace line not JSON: %v", err)
	}
	if e.Kind != KindProtocolRound || e.Value != 42 {
		t.Errorf("filtered event = %+v", e)
	}

	pprofIdx, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", pprofIdx)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	o := New()
	o.Counter("x_total").Inc()
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "x_total 1") {
		t.Fatalf("served metrics missing counter: %q", body[:n])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil Server not inert")
	}
}

func TestRegistryConcurrentRegisterAndSnapshot(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Counter(fmt.Sprintf("c_%d", i%10)).Inc()
				o.Gauge(fmt.Sprintf("g_%d", i%10)).Set(float64(i))
				o.Histogram(fmt.Sprintf("h_%d", i%10)).Record(float64(i + 1))
				if i%50 == 0 {
					_ = o.Registry().Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := o.Registry().Snapshot()
	if len(snap.Counters) != 10 || len(snap.Gauges) != 10 || len(snap.Histograms) != 10 {
		t.Fatalf("registered %d/%d/%d metrics, want 10 each",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	var total int64
	for _, v := range snap.Counters {
		total += v
	}
	if total != 8*200 {
		t.Fatalf("counter total = %d, want %d", total, 8*200)
	}
}

// Killing the listener out from under the exposition accept loop must
// surface the loop's terminal error through ServeErr and Close instead
// of silently discarding it.
func TestServeErrSurfacesAcceptLoopFailure(t *testing.T) {
	s, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeErr(); err != nil {
		t.Fatalf("ServeErr before any failure = %v", err)
	}
	s.ln.Close() // simulate the listener dying while the server runs
	deadline := time.Now().Add(5 * time.Second)
	for s.ServeErr() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.ServeErr() == nil {
		t.Fatal("accept-loop failure never surfaced via ServeErr")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the accept-loop failure")
	}
}
