// Command groupform runs the paper's group formation pipeline end to end
// on a simulated edge cache network and reports the resulting cooperative
// groups and their quality.
//
// Usage:
//
//	groupform -caches 500 -k 50 -scheme sdsl -theta 1
//	groupform -caches 200 -k 20 -scheme sl -json
//	groupform -caches 60 -k 6 -distributed -loss 0.2 -dup 0.1 -crash 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	ecg "edgecachegroups"
	"edgecachegroups/internal/landmark"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "groupform:", err)
		os.Exit(1)
	}
}

// output is the machine-readable result shape.
type output struct {
	Scheme      string  `json:"scheme"`
	Caches      int     `json:"caches"`
	K           int     `json:"k"`
	GICostMS    float64 `json:"avgGroupInteractionCostMS"`
	Iterations  int     `json:"kmeansIterations,omitempty"`
	Converged   bool    `json:"converged,omitempty"`
	GroupSizes  []int   `json:"groupSizes"`
	Assignments []int   `json:"assignments"`
	Checksum    string  `json:"planChecksum,omitempty"`
	SuggestedK  int     `json:"suggestedK,omitempty"`

	// Distributed-mode resilience accounting (-distributed).
	Distributed      bool  `json:"distributed,omitempty"`
	Unresponsive     int   `json:"unresponsive,omitempty"`
	Unacked          int   `json:"unackedAssignments,omitempty"`
	MessagesSent     int64 `json:"messagesSent,omitempty"`
	Retries          int64 `json:"retries,omitempty"`
	DuplicateReplies int64 `json:"duplicateReplies,omitempty"`
	TimedOutWaits    int64 `json:"timedOutWaits,omitempty"`
	Degraded         bool  `json:"degraded,omitempty"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("groupform", flag.ContinueOnError)
	var (
		caches   = fs.Int("caches", 500, "number of edge caches")
		k        = fs.Int("k", 50, "number of cooperative groups")
		scheme   = fs.String("scheme", "sdsl", "group formation scheme: sl, sdsl, or euclidean")
		theta    = fs.Float64("theta", 1.0, "SDSL server-distance sensitivity")
		l        = fs.Int("l", 25, "number of landmarks (including the origin)")
		m        = fs.Int("m", 4, "PLSet multiplier")
		dim      = fs.Int("dim", 5, "GNP embedding dimension (euclidean scheme)")
		selector = fs.String("landmarks", "greedy", "landmark selector: greedy, random, or min-dist")
		seed     = fs.Int64("seed", 1, "random seed")
		asJSON   = fs.Bool("json", false, "emit JSON instead of text")
		suggestK = fs.Bool("suggest-k", false, "also report the elbow-suggested number of groups")
		parallel = fs.Int("parallelism", 0, "worker-pool bound for probing, clustering, and embedding (0 = per-layer defaults; results are identical for any value)")

		distributed = fs.Bool("distributed", false, "run the message-passing protocol (coordinator + per-cache agents) over a fault-injecting transport instead of the in-process pipeline")
		loss        = fs.Float64("loss", 0, "distributed: per-message loss probability in [0,1)")
		dup         = fs.Float64("dup", 0, "distributed: message duplication probability in [0,1)")
		delay       = fs.Float64("delay", 0, "distributed: message delay/reorder probability in [0,1)")
		maxDelay    = fs.Int("max-delay", 0, "distributed: reordering window in subsequent link messages (0 = default)")
		crash       = fs.Int("crash", 0, "distributed: crash the N highest-index caches before the run")
		retries     = fs.Int("retries", 3, "distributed: request retries per peer (0 = exactly one attempt)")

		obsAddr = fs.String("obs-addr", "", "serve live /metrics, /debug/vars, /debug/pprof, and /trace on this host:port (\":0\" for ephemeral; results are identical with or without)")
		obsWait = fs.Duration("obs-linger", 0, "keep the -obs-addr endpoint up this long after the run finishes, for scraping")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var o *ecg.Obs
	if *obsAddr != "" {
		o = ecg.NewObs()
		srv, err := ecg.ServeObs(*obsAddr, o)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "observability endpoint on http://%s/metrics\n", srv.Addr())
		if *obsWait > 0 {
			defer time.Sleep(*obsWait)
		}
	}

	lp := landmark.Fit(*l, *m, *caches)
	var cfg ecg.SchemeConfig
	switch strings.ToLower(*scheme) {
	case "sl":
		cfg = ecg.SL(lp.L, lp.M)
	case "sdsl":
		cfg = ecg.SDSL(lp.L, lp.M, *theta)
	case "euclidean":
		cfg = ecg.EuclideanScheme(lp.L, lp.M, *dim)
	default:
		return fmt.Errorf("unknown scheme %q (want sl, sdsl, or euclidean)", *scheme)
	}
	switch strings.ToLower(*selector) {
	case "greedy":
		cfg.Selector = ecg.GreedyLandmarks{}
	case "random":
		cfg.Selector = ecg.RandomLandmarks{}
	case "min-dist", "mindist":
		cfg.Selector = ecg.MinDistLandmarks{}
	default:
		return fmt.Errorf("unknown landmark selector %q", *selector)
	}
	cfg.Verify = true
	cfg.Obs = o
	if *parallel < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", *parallel)
	}
	cfg = ecg.WithParallelism(cfg, *parallel)

	src := ecg.NewRand(*seed)
	graph, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topo"))
	if err != nil {
		return fmt.Errorf("generate topology: %w", err)
	}
	nw, err := ecg.NewNetwork(graph, ecg.PlaceParams{NumCaches: *caches}, src.Split("place"))
	if err != nil {
		return fmt.Errorf("place network: %w", err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		return fmt.Errorf("build prober: %w", err)
	}
	if *distributed {
		if strings.EqualFold(*scheme, "euclidean") {
			return fmt.Errorf("the euclidean scheme is not available in -distributed mode (agents report raw landmark RTTs)")
		}
		if !strings.EqualFold(*selector, "greedy") {
			return fmt.Errorf("-landmarks %s is not available in -distributed mode (the coordinator selects landmarks greedily)", *selector)
		}
		theta := *theta
		if strings.EqualFold(*scheme, "sl") {
			theta = 0
		}
		d := distOptions{
			caches: *caches, k: *k, l: lp.L, m: lp.M, theta: theta,
			loss: *loss, dup: *dup, delay: *delay, maxDelay: *maxDelay, crash: *crash,
			retries: *retries, asJSON: *asJSON, obs: o,
		}
		return runDistributed(w, d, nw, prober, src)
	}
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf"))
	if err != nil {
		return fmt.Errorf("build coordinator: %w", err)
	}
	plan, err := gf.FormGroups(*k)
	if err != nil {
		return fmt.Errorf("form groups: %w", err)
	}

	suggested := 0
	if *suggestK {
		kMax := *caches / 5
		if kMax < 2 {
			kMax = 2
		}
		if kMax > 40 {
			kMax = 40
		}
		suggested, _, err = ecg.SuggestK(plan.Points, kMax, *parallel, src.Split("suggestk"))
		if err != nil {
			return fmt.Errorf("suggest k: %w", err)
		}
	}

	out := planOutput(nw, plan, plan.Groups(), plan.Assignments, *caches, *k)
	out.SuggestedK = suggested
	return writeOutput(w, out, *asJSON)
}

// planOutput is the report of a formed plan; groups and assignments are
// its partition in cache indices (a distributed plan covers only the
// caches that responded).
func planOutput(nw *ecg.Network, plan *ecg.Plan, groups [][]ecg.CacheIndex, assignments []int, caches, k int) output {
	return output{
		Scheme:      plan.Scheme,
		Caches:      caches,
		K:           k,
		GICostMS:    ecg.AvgGroupInteractionCost(nw, groups),
		Iterations:  plan.Iterations,
		Converged:   plan.Converged,
		GroupSizes:  plan.Sizes(),
		Assignments: assignments,
		Checksum:    fmt.Sprintf("%016x", plan.Checksum()),
	}
}

// writeOutput prints out as indented JSON or as text.
func writeOutput(w io.Writer, out output, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(w, "scheme:     %s\n", out.Scheme)
	fmt.Fprintf(w, "caches/K:   %d / %d\n", out.Caches, out.K)
	fmt.Fprintf(w, "k-means:    %d iterations, converged=%v\n", out.Iterations, out.Converged)
	fmt.Fprintf(w, "GICost:     %.1f ms (avg pairwise RTT within groups)\n", out.GICostMS)
	fmt.Fprintf(w, "checksum:   %s\n", out.Checksum)
	if out.Distributed {
		fmt.Fprintf(w, "messages:   %d sent, %d retries, %d duplicate replies, %d timed-out waits\n",
			out.MessagesSent, out.Retries, out.DuplicateReplies, out.TimedOutWaits)
		fmt.Fprintf(w, "coverage:   %d assigned, %d unresponsive, %d unacked (degraded=%v)\n",
			out.Caches-out.Unresponsive, out.Unresponsive, out.Unacked, out.Degraded)
	}
	fmt.Fprintf(w, "group sizes:")
	for _, s := range out.GroupSizes {
		fmt.Fprintf(w, " %d", s)
	}
	fmt.Fprintln(w)
	if out.SuggestedK > 0 {
		fmt.Fprintf(w, "suggested K (elbow of within-cluster SS): %d\n", out.SuggestedK)
	}
	return nil
}

// distOptions carries the -distributed flag values.
type distOptions struct {
	caches, k, l, m          int
	theta                    float64
	loss, dup, delay         float64
	maxDelay, crash, retries int
	asJSON                   bool
	obs                      *ecg.Obs
}

// runDistributed executes the message-passing protocol over a
// fault-injecting transport and reports the result with its resilience
// counters.
func runDistributed(w io.Writer, d distOptions, nw *ecg.Network, prober *ecg.Prober, src *ecg.Rand) error {
	if d.crash < 0 || d.crash >= d.caches {
		return fmt.Errorf("crash count %d out of range [0,%d)", d.crash, d.caches)
	}
	tr, err := ecg.NewFaultTransport(ecg.FaultConfig{
		Loss: d.loss, DupProb: d.dup, DelayProb: d.delay, MaxDelay: d.maxDelay,
	}, src.Split("transport"))
	if err != nil {
		return err
	}
	defer tr.Close()
	for i := 0; i < d.caches; i++ {
		if _, err := ecg.NewProtocolAgent(ecg.CacheIndex(i), prober, tr); err != nil {
			return fmt.Errorf("start agent %d: %w", i, err)
		}
	}
	for i := 0; i < d.crash; i++ {
		tr.Kill(ecg.ProtocolCacheAddr(ecg.CacheIndex(d.caches - 1 - i)))
	}

	pcfg := ecg.ProtocolConfig{L: d.l, M: d.m, K: d.k, Theta: d.theta, Retries: d.retries, Obs: d.obs}
	coord, err := ecg.NewProtocolCoordinator(pcfg, d.caches, tr, src.Split("coordinator"))
	if err != nil {
		return err
	}
	res, err := coord.Run()
	if err != nil {
		return fmt.Errorf("protocol run: %w", err)
	}
	tr.PublishObs(d.obs)

	assignments := make([]int, d.caches)
	for i := range assignments {
		assignments[i] = -1 // unresponsive caches end up in no group
	}
	for i, ci := range res.Members {
		assignments[ci] = res.Plan.Assignments[i]
	}
	out := planOutput(nw, res.Plan, res.Groups(), assignments, d.caches, d.k)
	out.Scheme = "sl-distributed"
	if d.theta > 0 {
		out.Scheme = "sdsl-distributed"
	}
	out.Distributed = true
	out.Unresponsive = len(res.Unresponsive)
	out.Unacked = len(res.UnackedAssignments)
	out.MessagesSent = res.MessagesSent
	out.Retries = res.Retries
	out.DuplicateReplies = res.DuplicateReplies
	out.TimedOutWaits = res.TimedOutWaits
	out.Degraded = res.Degraded
	return writeOutput(w, out, d.asJSON)
}
