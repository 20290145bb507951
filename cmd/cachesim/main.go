// Command cachesim replays trace files produced by cmd/tracegen through
// the cooperative edge cache simulator: it builds (or loads) a topology,
// places the edge cache network, forms cooperative groups with the chosen
// scheme, and reports latency and hit-rate statistics.
//
// Usage:
//
//	tracegen -caches 200 -out /tmp/trace
//	cachesim -trace /tmp/trace -k 20 -scheme sdsl
//	cachesim -trace /tmp/trace -k 20 -topology topo.json   # topogen -dump
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	ecg "edgecachegroups"
	"edgecachegroups/cmd/internal/cli"
	"edgecachegroups/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	scheme := cli.SchemeFlags(fs, "group formation scheme: sl, sdsl, or euclidean")
	scheme.Dim = 5
	obsFlags := cli.ObsFlags(fs)
	var (
		traceDir = fs.String("trace", "", "directory holding catalog.json, requests.jsonl, updates.jsonl (required)")
		topoFile = fs.String("topology", "", "optional topology JSON (from topogen -dump); otherwise generated from -seed")
		k        = fs.Int("k", 20, "number of cooperative groups")
		alpha    = fs.Float64("alpha", 0.8, "Zipf exponent used to rebuild the catalog profile")
		seed     = fs.Int64("seed", 1, "random seed (topology, placement, probing, clustering)")
		warmup   = fs.Float64("warmup", 0, "seconds of warm-up excluded from latency stats")
		policy   = fs.String("policy", "utility", "cache replacement policy: utility or lru")
		beacons  = fs.Int("beacons", 0, "beacon points per group (0 = multicast cooperation model)")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceDir == "" {
		return fmt.Errorf("-trace is required")
	}
	// The plan and the report come from outside input (a trace file and
	// optionally a topology file), so both are checked, as every other
	// command checks its plans (scheme.Config sets the plan's Verify).
	simCfg := ecg.DefaultSimConfig()
	simCfg.WarmupSec = *warmup
	simCfg.BeaconsPerGroup = *beacons
	simCfg.Verify = true
	switch strings.ToLower(*policy) {
	case "utility":
		simCfg.CachePolicy = ecg.PolicyUtility
	case "lru":
		simCfg.CachePolicy = ecg.PolicyLRU
	default:
		return fmt.Errorf("unknown policy %q (want utility or lru)", *policy)
	}
	// Reject bad simulator flags before the formation they would
	// otherwise fail after.
	if err := simCfg.Validate(0); err != nil {
		return err
	}
	o, stop, err := obsFlags.Start(w)
	if err != nil {
		return err
	}
	defer stop()
	simCfg.Obs = o

	catalog, requests, updates, err := loadTrace(*traceDir, *alpha)
	if err != nil {
		return err
	}
	numCaches := 0
	for _, r := range requests {
		if int(r.Cache) >= numCaches {
			numCaches = int(r.Cache) + 1
		}
	}
	if numCaches == 0 {
		return fmt.Errorf("request log is empty")
	}

	var graph *ecg.Graph
	if *topoFile != "" {
		f, err := os.Open(*topoFile)
		if err != nil {
			return fmt.Errorf("open topology: %w", err)
		}
		graph, err = ecg.ReadGraphJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load topology: %w", err)
		}
	}
	cfg, err := scheme.Config(numCaches, o)
	if err != nil {
		return err
	}
	nw, plan, err := cli.Form(graph, numCaches, *k, cfg, ecg.NewRand(*seed))
	if err != nil {
		return err
	}

	sim, err := ecg.NewSimulator(nw, plan.Groups(), catalog, simCfg)
	if err != nil {
		return fmt.Errorf("build simulator: %w", err)
	}
	rep, err := sim.Run(requests, updates)
	if err != nil {
		return fmt.Errorf("run simulation: %w", err)
	}

	local, group, origin := rep.HitRates()
	fmt.Fprintf(w, "trace:      %d caches, %d requests, %d updates, %d documents\n",
		numCaches, len(requests), len(updates), catalog.NumDocuments())
	fmt.Fprintf(w, "plan:       %s, K=%d, GICost %.1fms\n",
		plan.Scheme, plan.NumGroups(), ecg.AvgGroupInteractionCost(nw, plan.Groups()))
	fmt.Fprintf(w, "latency:    mean %.1fms  p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		rep.Overall.Mean(), rep.Overall.Percentile(50), rep.Overall.Percentile(95), rep.Overall.Percentile(99))
	fmt.Fprintf(w, "hit mix:    local %.1f%%  group %.1f%%  origin %.1f%%\n",
		local*100, group*100, origin*100)
	near := nw.NearestCaches(numCaches / 10)
	far := nw.FarthestCaches(numCaches / 10)
	if len(near) > 0 && len(far) > 0 {
		fmt.Fprintf(w, "by region:  nearest-10%% %.1fms  farthest-10%% %.1fms\n",
			rep.MeanLatencyOf(near), rep.MeanLatencyOf(far))
	}
	return nil
}

func loadTrace(dir string, alpha float64) (*workload.Catalog, []workload.Request, []workload.Update, error) {
	catFile, err := os.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open catalog: %w", err)
	}
	defer catFile.Close()
	catalog, err := workload.ReadCatalogJSON(catFile, alpha)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse catalog: %w", err)
	}

	reqFile, err := os.Open(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open requests: %w", err)
	}
	defer reqFile.Close()
	requests, err := workload.ReadRequestsJSONL(reqFile)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse requests: %w", err)
	}

	upFile, err := os.Open(filepath.Join(dir, "updates.jsonl"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open updates: %w", err)
	}
	defer upFile.Close()
	updates, err := workload.ReadUpdatesJSONL(upFile)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse updates: %w", err)
	}
	return catalog, requests, updates, nil
}
