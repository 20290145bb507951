package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/obs"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	o := obs.New()
	cfg := testConfig(testPlan(8))
	cfg.Obs = o
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ts := httptest.NewServer(NewHandler(e, o))
	t.Cleanup(ts.Close)
	return e, ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func postStats(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/stats", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /stats: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServerPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var plan planResponse
	getJSON(t, ts.URL+"/plan", http.StatusOK, &plan)
	if plan.Epoch != 1 || plan.Caches != 8 || plan.K != 2 || plan.Scheme != "SL" {
		t.Fatalf("plan = %+v, want epoch 1, 8 caches, k=2, SL", plan)
	}
	if len(plan.GroupSizes) != 2 || plan.GroupSizes[0]+plan.GroupSizes[1] != 8 {
		t.Fatalf("group sizes %v do not partition 8 caches", plan.GroupSizes)
	}
	if len(plan.Assignments) != 0 {
		t.Fatalf("assignments leaked without full=1: %v", plan.Assignments)
	}

	getJSON(t, ts.URL+"/plan?full=1", http.StatusOK, &plan)
	if len(plan.Assignments) != 8 {
		t.Fatalf("full=1 returned %d assignments, want 8", len(plan.Assignments))
	}
}

func TestServerAssignEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var a assignResponse
	getJSON(t, ts.URL+"/assign?cache=5", http.StatusOK, &a)
	if a.Cache != 5 || a.Group != 1 || a.Epoch != 1 {
		t.Fatalf("assign = %+v, want cache 5 → group 1 @ epoch 1", a)
	}
	getJSON(t, ts.URL+"/assign", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/assign?cache=abc", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/assign?cache=99", http.StatusNotFound, nil)
}

func TestServerGroupEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var g groupResponse
	getJSON(t, ts.URL+"/groups/0", http.StatusOK, &g)
	if g.Group != 0 || g.Size != 4 || len(g.Members) != 4 || len(g.Center) != 2 {
		t.Fatalf("group 0 = %+v, want 4 members and a 2-dim center", g)
	}
	for _, m := range g.Members {
		if m >= 4 {
			t.Fatalf("group 0 contains cache %d, want caches 0-3", m)
		}
	}
	getJSON(t, ts.URL+"/groups/7", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/groups/x", http.StatusBadRequest, nil)
}

func TestServerStatsIngestToReassign(t *testing.T) {
	e, ts := newTestServer(t)

	// Object form.
	batch := statsFor(e.Epoch().Plan)
	batch[0].RTTMS = []float64{201, 199}
	body, _ := json.Marshal(statsRequest{Stats: batch})
	resp := postStats(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /stats: status %d, want 202", resp.StatusCode)
	}

	if _, err := e.Tick(); err != nil {
		t.Fatalf("Tick: %v", err)
	}

	var a assignResponse
	getJSON(t, ts.URL+"/assign?cache=0", http.StatusOK, &a)
	if a.Group != 1 || a.Epoch != 2 {
		t.Fatalf("after drift, assign = %+v, want group 1 @ epoch 2", a)
	}
}

func TestServerStatsBareArrayAndErrors(t *testing.T) {
	e, ts := newTestServer(t)
	// Bare-array form.
	resp := postStats(t, ts.URL, `[{"cache":2,"rttMS":[10,10],"requests":4}]`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bare array: status %d, want 202", resp.StatusCode)
	}
	if e.Health().StatReports != 1 {
		t.Fatalf("bare array not recorded: total %d", e.Health().StatReports)
	}
	// Malformed JSON.
	if resp := postStats(t, ts.URL, `{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Validation failure (NaN is not valid JSON; use a bad dimension).
	if resp := postStats(t, ts.URL, `{"stats":[{"cache":0,"rttMS":[1]}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dimension: status %d, want 400", resp.StatusCode)
	}
	// GET on /stats is not routed.
	getJSON(t, ts.URL+"/stats", http.StatusMethodNotAllowed, nil)
}

func TestServerHealthzDegraded(t *testing.T) {
	plan := testPlan(8)
	cfg := testConfig(plan)
	cfg.Maint.ReclusterFraction = 0.1
	cfg.Recluster = func() (*core.Plan, error) { return nil, fmt.Errorf("probe quorum lost") }
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ts := httptest.NewServer(NewHandler(e, obs.New()))
	defer ts.Close()

	var h Health
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("boot health %q, want ok", h.Status)
	}

	batch := statsFor(plan)
	for i := range batch {
		batch[i].RTTMS = []float64{900 + float64(i), 900}
	}
	if err := e.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if _, err := e.Tick(); err == nil {
		t.Fatal("Tick succeeded with failing recluster")
	}

	// Degraded is still HTTP 200: stale-but-serving must not be evicted.
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || !h.ServingStalePlans || h.ConsecutiveFailures != 1 {
		t.Fatalf("degraded health = %+v", h)
	}
	if !strings.Contains(h.LastError, "quorum lost") {
		t.Fatalf("health does not surface the failure: %+v", h)
	}
}

func TestServerObsEndpointsMounted(t *testing.T) {
	_, ts := newTestServer(t)
	// Touch an instrumented endpoint so request metrics exist.
	getJSON(t, ts.URL+"/plan", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, metric := range []string{"serve_epochs_published", "http_requests"} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %s:\n%s", metric, body)
		}
	}
	getJSON(t, ts.URL+"/debug/vars", http.StatusOK, nil)
}

func TestServeLifecycle(t *testing.T) {
	e, err := NewEngine(testConfig(testPlan(8)))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Serve("127.0.0.1:0", e, obs.New())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	var a assignResponse
	getJSON(t, "http://"+s.Addr()+"/assign?cache=1", http.StatusOK, &a)
	if a.Group != 0 {
		t.Fatalf("assign over TCP = %+v", a)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := (*Server)(nil).Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// Killing the listener out from under the accept loop must surface the
// loop's terminal error through ServeErr and Close instead of silently
// discarding it (the loop used to drop it with `_ = srv.Serve(ln)`).
func TestServeErrSurfacesAcceptLoopFailure(t *testing.T) {
	e, err := NewEngine(testConfig(testPlan(8)))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Serve("127.0.0.1:0", e, obs.New())
	if err != nil {
		t.Fatalf("Serve: %v", err)
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

// FuzzStatsHandler: whatever body is POSTed to /stats, the handler
// answers 202 or 400, never a panic or a 5xx. A 202 grows StatReports by
// exactly the accepted count and a 400 leaves it unchanged (Ingest
// validates the whole batch before recording any of it); neither moves
// the published epoch before a Tick, and the Tick that folds the window in
// never reads a negative request total. The committed corpus holds a
// valid object, a bare array, a wrong-dimension vector, a NaN given as a
// string, a negative request count, two MaxInt64 counts for one cache and
// an empty batch.
func FuzzStatsHandler(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		e, err := NewEngine(testConfig(testPlan(8)))
		if err != nil {
			t.Fatal(err)
		}
		before := e.Epoch().Checksum
		rec := httptest.NewRecorder()
		NewHandler(e, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stats", bytes.NewReader(body)))
		reports := e.Health().StatReports
		switch rec.Code {
		case http.StatusAccepted:
			var resp struct{ Accepted int64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body.String(), err)
			}
			if resp.Accepted < 1 || reports != resp.Accepted {
				t.Fatalf("202 accepted %d reports, StatReports = %d", resp.Accepted, reports)
			}
		case http.StatusBadRequest:
			if reports != 0 {
				t.Fatalf("400 still recorded %d reports", reports)
			}
		default:
			t.Fatalf("status %d, want 202 or 400 (body %q)", rec.Code, rec.Body.String())
		}
		if got := e.Epoch().Checksum; got != before {
			t.Fatalf("epoch checksum moved from %016x to %016x before a Tick", before, got)
		}
		// A fuzzed window may fail maintenance; the last good epoch keeps
		// serving, so only the request total is checked here.
		_, _ = e.Tick()
		if got := e.Health().IngestedRequests; got < 0 {
			t.Fatalf("ingestedRequests = %d after Tick", got)
		}
	})
}
