// Command groupformd is the long-running group-formation service: it
// forms an initial group plan over a simulated edge cache network (or
// restores a persisted one), then keeps it aligned with drifting network
// conditions while serving plan and assignment queries over HTTP/JSON.
//
// Endpoints:
//
//	POST /stats        ingest per-cache RTT/request reports
//	GET  /plan         current plan summary (?full=1 for assignments)
//	GET  /assign?cache=N  the cache's group under the current epoch
//	GET  /groups/{id}  one group's members and center
//	GET  /healthz      ok / degraded (stale-but-serving) / down
//	GET  /metrics      Prometheus exposition (plus /debug/vars, /trace)
//
// Usage:
//
//	groupformd -addr :8344 -caches 200 -k 20 -scheme sdsl
//	groupformd -addr :8344 -snapshot /var/lib/groupformd/plan.json
//	groupformd -addr :0 -interval 5s -drift 0.1 -recluster-frac 0.4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	ecg "edgecachegroups"
	"edgecachegroups/cmd/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "groupformd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until the stop channel fires or a
// termination signal arrives. Tests pass a stop channel and a ready
// callback via readyCh; production passes nil and waits for signals.
func run(args []string, w io.Writer, ready chan<- *ecg.ServeServer) error {
	fs := flag.NewFlagSet("groupformd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8344", "HTTP listen address (\":0\" for ephemeral)")
		caches   = fs.Int("caches", 200, "number of edge caches (initial formation)")
		k        = fs.Int("k", 20, "number of cooperative groups")
		scheme   = cli.SchemeFlags(fs, "group formation scheme: sl or sdsl (feature-vector schemes only; the daemon ingests raw landmark RTTs)")
		seed     = fs.Int64("seed", 1, "random seed")
		interval = fs.Duration("interval", time.Minute, "maintenance round period")
		sample   = fs.Float64("sample", 1.0, "fraction of caches examined per round, in (0,1]")
		drift    = fs.Float64("drift", 0.2, "relative feature change that marks a cache as drifted")
		reclustr = fs.Float64("recluster-frac", 0.5, "drifted fraction of measured caches that triggers a full re-clustering")
		snapshot = fs.String("snapshot", "", "persist every published plan to this path and reload it on start")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := ecg.NewObs()
	cfg := ecg.ServeConfig{
		Rand: ecg.NewRand(*seed),
		Obs:  o,
		Maint: ecg.MaintainerConfig{
			Interval:          *interval,
			SampleFraction:    *sample,
			DriftThreshold:    *drift,
			ReclusterFraction: *reclustr,
		},
		SnapshotPath: *snapshot,
	}
	// Reject bad maintenance tuning before the formation it would
	// otherwise fail after.
	if err := cfg.EffectiveMaint().Validate(); err != nil {
		return err
	}

	// Boot plan: a persisted snapshot when available, otherwise an initial
	// formation over a freshly simulated network.
	if *snapshot != "" {
		if ep, err := ecg.LoadPlanSnapshot(*snapshot); err == nil {
			cfg.Plan = ep.Plan
			cfg.ResumeEpoch = ep.Seq
			fmt.Fprintf(w, "restored plan epoch %d (%d caches, %d groups) from %s\n",
				ep.Seq, ep.Plan.NumCaches(), ep.Plan.NumGroups(), *snapshot)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("load snapshot: %w", err)
		}
	}
	if cfg.Plan == nil {
		// The boot plan is the one groupform forms for the same flags.
		fcfg, err := scheme.Config(*caches, o)
		if err != nil {
			return err
		}
		_, plan, err := cli.Form(nil, *caches, *k, fcfg, cfg.Rand)
		if err != nil {
			return err
		}
		cfg.Plan = plan
		fmt.Fprintf(w, "formed initial plan: %d caches, %d groups (%s)\n",
			plan.NumCaches(), plan.NumGroups(), plan.Scheme)
	}

	e, err := ecg.NewServeEngine(cfg)
	if err != nil {
		return err
	}
	srv, err := ecg.ServeGroups(*addr, e, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving on http://%s (plan epoch %d)\n", srv.Addr(), e.Epoch().Seq)
	if ready != nil {
		// Test mode: hand the server to the caller, which owns Close.
		ready <- srv
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(w, "received %s, shutting down\n", s)
	return srv.Close()
}
