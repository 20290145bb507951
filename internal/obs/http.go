package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters as `<name> <value>`, gauges likewise,
// and histograms summary-style — `<name>{quantile="..."} <v>` plus
// `<name>_sum` and `<name>_count`. Metric names walk in sorted order so
// two equal snapshots render byte-identically.
func WritePrometheus(w io.Writer, r *Registry) error {
	s := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s summary\n", name)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", name, formatFloat(h.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", name, formatFloat(h.P99))
		fmt.Fprintf(&b, "%s{quantile=\"0.999\"} %s\n", name, formatFloat(h.P999))
		fmt.Fprintf(&b, "%s_sum %s\n", name, formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float the way the Prometheus text format expects
// (shortest round-trip form; no exponent for typical magnitudes).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the exposition mux for o: /metrics (Prometheus text),
// /debug/vars (JSON Snapshot), /trace (JSONL events, optional ?kind=
// filter), and the net/http/pprof suite under /debug/pprof/.
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//ecglint:allow errdrop a failed exposition write means the scraper went away; nothing to record server-side
		_ = WritePrometheus(w, o.Registry())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//ecglint:allow errdrop a failed exposition write means the scraper went away; nothing to record server-side
		_ = enc.Encode(o.Registry().Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		kind := req.URL.Query().Get("kind")
		sink := o.Trace()
		if kind == "" {
			//ecglint:allow errdrop a failed exposition write means the scraper went away; nothing to record server-side
			_ = sink.WriteJSONL(w)
			return
		}
		enc := json.NewEncoder(w)
		for _, e := range sink.Events() {
			if string(e.Kind) == kind {
				//ecglint:allow errdrop a failed exposition write means the scraper went away; nothing to record server-side
				_ = enc.Encode(e)
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a live HTTP endpoint: a listener and the accept loop that
// serves a handler on it. Construct with Serve or ServeOn; Close releases
// the listener.
type Server struct {
	srv *http.Server
	ln  net.Listener

	errMu    sync.Mutex
	serveErr error // terminal accept-loop error other than a clean Close
}

// ServeErr returns the error that killed the background accept loop, if
// it died for a reason other than Close; nil while serving normally.
func (s *Server) ServeErr() error {
	if s == nil {
		return nil
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.serveErr
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down, surfacing any error that killed the
// accept loop while the server ran. Safe on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	closeErr := s.srv.Close()
	if serveErr := s.ServeErr(); serveErr != nil {
		return serveErr
	}
	return closeErr
}

// Serve binds addr (host:port; use ":0" for an ephemeral port) and
// serves Handler(o) on it in a background goroutine. The caller owns the
// returned Server and should Close it when done.
func Serve(addr string, o *Obs) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	return ServeOn(ln, Handler(o)), nil
}

// ServeOn serves h on ln in a background goroutine. The returned Server
// owns ln; the caller should Close it when done.
func ServeOn(ln net.Listener, h http.Handler) *Server {
	s := &Server{srv: &http.Server{Handler: h}, ln: ln}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.errMu.Lock()
			s.serveErr = err
			s.errMu.Unlock()
		}
	}()
	return s
}
