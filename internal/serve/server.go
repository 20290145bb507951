package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/topology"
)

// statsRequest is the POST /stats body: either a bare array of reports or
// an object wrapping one under "stats".
type statsRequest struct {
	Stats []CacheStat `json:"stats"`
}

// planResponse is the GET /plan body.
type planResponse struct {
	Epoch       uint64  `json:"epoch"`
	Checksum    string  `json:"planChecksum"`
	Scheme      string  `json:"scheme"`
	Caches      int     `json:"caches"`
	K           int     `json:"k"`
	GroupSizes  []int   `json:"groupSizes"`
	UpdatedUnix int64   `json:"updatedUnix"`
	AgeSec      float64 `json:"ageSec"`
	Assignments []int   `json:"assignments,omitempty"`
}

// assignResponse is the GET /assign body.
type assignResponse struct {
	Cache int    `json:"cache"`
	Group int    `json:"group"`
	Epoch uint64 `json:"epoch"`
}

// groupResponse is the GET /groups/{id} body.
type groupResponse struct {
	Group   int       `json:"group"`
	Epoch   uint64    `json:"epoch"`
	Size    int       `json:"size"`
	Members []int     `json:"members"`
	Center  []float64 `json:"center"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxStatsBody bounds one POST /stats body (16 MiB) so a misbehaving
// reporter cannot exhaust memory.
const maxStatsBody = 16 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	//ecglint:allow errdrop a failed response write means the client went away; the status line is already committed
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// NewHandler builds the daemon's mux: the serving API (/stats, /plan,
// /assign, /groups/{id}, /healthz) plus, when o is non-nil, the obs
// exposition endpoints (/metrics, /debug/vars, /debug/pprof, /trace) on
// the same listener. Query handlers read one immutable epoch per request
// via a single atomic pointer load, so the handler scales with the
// listener, not the maintenance loop.
func NewHandler(e *Engine, o *obs.Obs) http.Handler {
	mux := http.NewServeMux()
	requests := o.Counter("http_requests")
	latency := o.Histogram("http_request_ms")

	instrument := func(h http.HandlerFunc) http.HandlerFunc {
		if o == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			begin := time.Now()
			h(w, r)
			requests.Inc()
			latency.Record(float64(time.Since(begin)) / float64(time.Millisecond))
		}
	}

	mux.HandleFunc("POST /stats", instrument(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxStatsBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("read stats body: %w", err))
			return
		}
		var req statsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			// Accept a bare array of reports for curl-friendly bodies.
			if arrErr := json.Unmarshal(body, &req.Stats); arrErr != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("decode stats: %w", err))
				return
			}
		}
		if err := e.Ingest(req.Stats); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": len(req.Stats)})
	}))

	mux.HandleFunc("GET /plan", instrument(func(w http.ResponseWriter, r *http.Request) {
		ep := e.Epoch()
		if ep == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no plan formed yet"))
			return
		}
		resp := planResponse{
			Epoch:       ep.Seq,
			Checksum:    checksumHex(ep.Checksum),
			Scheme:      ep.Plan.Scheme,
			Caches:      ep.Plan.NumCaches(),
			K:           ep.Plan.NumGroups(),
			GroupSizes:  ep.Plan.Sizes(),
			UpdatedUnix: ep.Updated.Unix(),
			AgeSec:      time.Since(ep.Updated).Seconds(),
		}
		if r.URL.Query().Get("full") == "1" {
			resp.Assignments = ep.Plan.Assignments
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("GET /assign", instrument(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("cache")
		if q == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing cache parameter"))
			return
		}
		cache, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad cache parameter %q", q))
			return
		}
		g, ep, err := e.Assign(cache)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, assignResponse{Cache: cache, Group: g, Epoch: ep.Seq})
	}))

	mux.HandleFunc("GET /groups/{id}", instrument(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad group id %q", r.PathValue("id")))
			return
		}
		ep := e.Epoch()
		members, err := ep.Plan.Group(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		out := groupResponse{Group: id, Epoch: ep.Seq, Size: len(members), Members: cacheInts(members)}
		if id < len(ep.Plan.Centers) {
			out.Center = ep.Plan.Centers[id]
		}
		writeJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("GET /healthz", instrument(func(w http.ResponseWriter, r *http.Request) {
		h := e.Health()
		status := http.StatusOK
		if h.Status == "down" {
			// Degraded stays 200: the daemon is still serving the last
			// good plan and a load balancer must not evict it.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	}))

	if o != nil {
		oh := obs.Handler(o)
		mux.Handle("/metrics", oh)
		mux.Handle("/debug/", oh)
		mux.Handle("/trace", oh)
	}
	return mux
}

func cacheInts(members []topology.CacheIndex) []int {
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = int(m)
	}
	return out
}

// Server is a live groupformd endpoint: the engine's background loop plus
// the HTTP listener, whose Addr and ServeErr it shares. Construct with
// Serve; Close stops both.
type Server struct {
	*obs.Server
	engine *Engine
}

// Engine returns the serving engine.
func (s *Server) Engine() *Engine {
	if s == nil {
		return nil
	}
	return s.engine
}

// Close stops the maintenance loop, persists the current epoch (when a
// snapshot path is configured), and releases the listener. Safe on a nil
// receiver and idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.engine.Stop()
	persistErr := s.engine.Persist()
	closeErr := s.Server.Close()
	if persistErr != nil {
		return persistErr
	}
	return closeErr
}

// Serve binds addr (host:port; ":0" for ephemeral), starts the engine's
// maintenance loop, and serves the daemon API on the listener in a
// background goroutine. The caller owns the returned Server.
func Serve(addr string, e *Engine, o *obs.Obs) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	e.Start()
	return &Server{Server: obs.ServeOn(ln, NewHandler(e, o)), engine: e}, nil
}
