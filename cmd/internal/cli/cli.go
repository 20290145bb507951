// Package cli is the front end the command-line binaries share: the
// -obs-addr/-obs-linger endpoint flags, the -scheme/-theta/-l/-m
// formation flags, and the one formation path — simulated network,
// prober, verified plan — that groupform, groupformd and cachesim run.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	ecg "edgecachegroups"
	"edgecachegroups/internal/landmark"
)

// Obs holds the -obs-addr and -obs-linger flags.
type Obs struct {
	addr   string
	linger time.Duration
}

// ObsFlags registers -obs-addr and -obs-linger on fs.
func ObsFlags(fs *flag.FlagSet) *Obs {
	f := &Obs{}
	fs.StringVar(&f.addr, "obs-addr", "", "serve live /metrics, /debug/vars, /debug/pprof, and /trace on this host:port (\":0\" for ephemeral; results are identical with or without)")
	fs.DurationVar(&f.linger, "obs-linger", 0, "keep the -obs-addr endpoint up this long after the run finishes, for scraping")
	return f
}

// Start serves the live endpoint when -obs-addr is set and announces its
// address on w. It returns the sink to instrument the run with (nil when
// -obs-addr is unset) and a stop function for the caller to defer, which
// keeps the endpoint up for -obs-linger and then closes it.
func (f *Obs) Start(w io.Writer) (*ecg.Obs, func(), error) {
	if f.addr == "" {
		return nil, func() {}, nil
	}
	o := ecg.NewObs()
	srv, err := ecg.ServeObs(f.addr, o)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "observability endpoint on http://%s/metrics\n", srv.Addr())
	return o, func() {
		defer srv.Close()
		time.Sleep(f.linger)
	}, nil
}

// Scheme holds the formation flags -scheme, -theta, -l and -m.
type Scheme struct {
	Name  string
	Theta float64
	L, M  int
	// Dim is the embedding dimension of the euclidean scheme; zero
	// refuses that scheme, for a binary that serves only feature vectors.
	Dim int
}

// SchemeFlags registers -scheme (documented by usage), -theta, -l and -m
// on fs.
func SchemeFlags(fs *flag.FlagSet, usage string) *Scheme {
	s := &Scheme{}
	fs.StringVar(&s.Name, "scheme", "sdsl", usage)
	fs.Float64Var(&s.Theta, "theta", 1.0, "SDSL server-distance sensitivity")
	fs.IntVar(&s.L, "l", 25, "number of landmarks (including the origin)")
	fs.IntVar(&s.M, "m", 4, "PLSet multiplier")
	return s
}

// Config turns the flags into the formation config for a network of
// caches caches: -l and -m shrink to fit it (landmark.Fit), every plan is
// verified, and o receives the formation's metrics.
func (s *Scheme) Config(caches int, o *ecg.Obs) (ecg.SchemeConfig, error) {
	lp := landmark.Fit(s.L, s.M, caches)
	var cfg ecg.SchemeConfig
	switch name := strings.ToLower(s.Name); {
	case name == "sl":
		cfg = ecg.SL(lp.L, lp.M)
	case name == "sdsl":
		cfg = ecg.SDSL(lp.L, lp.M, s.Theta)
	case name == "euclidean" && s.Dim > 0:
		cfg = ecg.EuclideanScheme(lp.L, lp.M, s.Dim)
	case s.Dim > 0:
		return cfg, fmt.Errorf("unknown scheme %q (want sl, sdsl, or euclidean)", s.Name)
	default:
		return cfg, fmt.Errorf("unknown scheme %q (want sl or sdsl; embedded-representation schemes cannot ingest raw landmark RTTs)", s.Name)
	}
	cfg.Verify = true
	cfg.Obs = o
	return cfg, nil
}

// Network places caches caches on graph — or, when graph is nil, on a
// transit-stub graph generated from src.Split("topo") — and builds the
// prober that measures them. Placement draws from src.Split("place") and
// probing from src.Split("probe").
func Network(graph *ecg.Graph, caches int, src *ecg.Rand) (*ecg.Network, *ecg.Prober, error) {
	if graph == nil {
		var err error
		if graph, err = ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topo")); err != nil {
			return nil, nil, fmt.Errorf("generate topology: %w", err)
		}
	}
	nw, err := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: caches}, src.Split("place"))
	if err != nil {
		return nil, nil, fmt.Errorf("place network: %w", err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		return nil, nil, fmt.Errorf("build prober: %w", err)
	}
	return nw, prober, nil
}

// Form builds the network as Network does and forms the plan of k groups
// over it with cfg, its coordinator drawing from src.Split("gf").
func Form(graph *ecg.Graph, caches, k int, cfg ecg.SchemeConfig, src *ecg.Rand) (*ecg.Network, *ecg.Plan, error) {
	nw, prober, err := Network(graph, caches, src)
	if err != nil {
		return nil, nil, err
	}
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf"))
	if err != nil {
		return nil, nil, fmt.Errorf("build coordinator: %w", err)
	}
	plan, err := gf.FormGroups(k)
	if err != nil {
		return nil, nil, fmt.Errorf("form groups: %w", err)
	}
	return nw, plan, nil
}
