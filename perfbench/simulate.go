package main

import (
	"fmt"
	"runtime"
	"strings"

	"edgecachegroups/internal/netsim"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/workload"
)

const (
	simCaches = 500
	simK      = 50
)

// simInputs is everything a simulation operation consumes.
type simInputs struct {
	net      *network
	groups   [][]topology.CacheIndex
	catalog  *workload.Catalog
	requests []workload.Request
	updates  []workload.Update
}

// buildSimInputs forms an SDSL plan and generates the default catalog and
// a 600 s request/update trace.
func buildSimInputs(tr *tracer, parent int, seed int64) (*simInputs, error) {
	root := simrand.New(seed)
	net, err := buildNetwork(tr, parent, root, simCaches)
	if err != nil {
		return nil, err
	}
	plan, err := formPlan(tr, parent, net, root.Split("formation"), simK)
	if err != nil {
		return nil, err
	}
	sp := tr.start("workload.generate", parent)
	defer tr.end(sp)
	catalog, err := workload.NewCatalog(workload.DefaultCatalogParams(), root.Split("catalog"))
	if err != nil {
		return nil, fmt.Errorf("build catalog: %w", err)
	}
	trace := workload.DefaultTraceParams()
	requests, err := workload.GenerateRequests(catalog, simCaches, trace, root.Split("requests"))
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	updates, err := workload.GenerateUpdates(catalog, trace.DurationSec, root.Split("updates"))
	if err != nil {
		return nil, fmt.Errorf("generate updates: %w", err)
	}
	return &simInputs{net: net, groups: plan.Groups(), catalog: catalog, requests: requests, updates: updates}, nil
}

// simConfig is the simulator's default latency model with report
// verification on and serial shards, as the CLIs run it.
func simConfig() netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Verify = true
	return cfg
}

// runSimulate measures the paper's evaluation path: each operation builds a
// simulator over the plan formed during set-up and runs the whole trace.
// Every run must produce the same verified report.
func runSimulate(r *runner) error {
	var in *simInputs
	release := func() error {
		in = nil
		return nil
	}
	setupS, err := timeSetups(r.out, r.tr, release, func(parent int) error {
		var err error
		in, err = buildSimInputs(r.tr, parent, r.opts.seed)
		return err
	})
	if err != nil {
		return err
	}
	r.layer["topology.generate_ms"] = r.tr.medianMS("topology.generate")
	r.layer["topology.network_ms"] = r.tr.medianMS("topology.network")
	r.layer["workload.generate_ms"] = r.tr.medianMS("workload.generate")

	var (
		want     uint64
		haveWant bool
	)
	checkReport := func(rep *netsim.Report) error {
		if err := rep.Verify(in.requests, in.updates); err != nil {
			return err
		}
		if got := rep.Checksum(); !haveWant {
			want, haveWant = got, true
		} else if got != want {
			return fmt.Errorf("report checksum %016x, first run gave %016x", got, want)
		}
		return nil
	}
	// The latest simulator and report, reachable when heap_mb is read.
	var (
		lastSim *netsim.Simulator
		lastRep *netsim.Report
	)
	simulate := func() error {
		sim, err := netsim.New(in.net.nw, in.groups, in.catalog, simConfig())
		if err != nil {
			return err
		}
		rep, err := sim.Run(in.requests, in.updates)
		if err != nil {
			return err
		}
		lastSim, lastRep = sim, rep
		return checkReport(rep)
	}
	if err := simulate(); err != nil { // warm-up; fixes the checksum
		return fmt.Errorf("warm-up simulation: %w", err)
	}

	total, half := r.measured()
	if !r.opts.trace {
		st := r.repeatOps(total, 5, simulate)
		r.setOpMetrics(st, setupS, heapMB())
		runtime.KeepAlive(in)
		runtime.KeepAlive(lastSim)
		runtime.KeepAlive(lastRep)
		fmt.Fprintf(r.out, "# simulate: n=%d p50=%.4gms p90=%.4gms cpu/op=%.4gms requests=%d updates=%d checksum=%016x\n",
			len(st.lat), median(st.lat), quantile(st.lat, 0.9), r.e2e["cpu_ms"], len(in.requests), len(in.updates), want)
		return nil
	}

	plain := r.repeatOps(half, 3, simulate)
	var (
		events int64
		allocs []float64
		last   *netsim.Report
	)
	traced := r.repeatOps(half, 3, func() error {
		op := r.tr.start("simulate.replay", -1)
		defer r.tr.end(op)
		// Verification runs as its own span below, so the simulator skips
		// its built-in copy.
		cfg := simConfig()
		cfg.Verify = false
		a0 := allocBytes()
		sp := r.tr.start("netsim.new", op)
		sim, err := netsim.New(in.net.nw, in.groups, in.catalog, cfg)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		sp = r.tr.start("netsim.run", op)
		rep, err := sim.Run(in.requests, in.updates)
		r.tr.end(sp)
		allocs = append(allocs, float64(allocBytes()-a0)/1e6)
		if err != nil {
			return err
		}
		events = 0
		for _, s := range sim.Stages().Snapshot() {
			if strings.HasPrefix(s.Name, "sim-shard-") {
				events += s.Items
			}
		}
		sp = r.tr.start("verify.report", op)
		err = checkReport(rep)
		r.tr.end(sp)
		last = rep
		return err
	})
	r.setProcLayer(traced.ph)
	var sum float64
	for _, name := range []string{"netsim.new", "netsim.run", "verify.report"} {
		v := r.tr.medianMS(name)
		r.layer[name+"_ms"] = v
		sum += v
	}
	r.layer["netsim.events"] = float64(events)
	if events > 0 {
		r.layer["netsim.ns_per_event"] = r.layer["netsim.run_ms"] * 1e6 / float64(events)
	}
	r.layer["netsim.alloc_mb"] = median(allocs)
	if last != nil {
		r.layer["cache.local_hits"] = float64(last.LocalHits)
		r.layer["cache.group_hits"] = float64(last.GroupHits)
		r.layer["cache.origin_fetches"] = float64(last.OriginFetches)
	}
	latency := median(plain.lat)
	r.layer["obs.trace_overhead_pct"] = pct(median(traced.lat), latency)
	r.layer["obs.layer_gap_pct"] = pct(sum, latency)
	fmt.Fprintf(r.out, "# simulate traced: New+Run p50=%.4gms, replay p50=%.4gms, layer sum=%.4gms\n",
		latency, median(traced.lat), sum)
	return nil
}
