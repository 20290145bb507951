// Command ecgsim regenerates the paper's evaluation figures (3-9) and the
// ablation studies on a simulated cooperative edge cache network.
//
// Usage:
//
//	ecgsim -fig 4                 # one figure
//	ecgsim -fig all               # figures 3-9
//	ecgsim -fig ablations         # theta / M / noise / failure ablations
//	ecgsim -fig all -scale 0.2    # quick, scaled-down run
//	ecgsim -fig 8 -trials 3       # average over 3 seeds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"edgecachegroups/internal/experiments"
	"edgecachegroups/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ecgsim:", err)
		os.Exit(1)
	}
}

// tabler is any experiment result that renders as a table.
type tabler interface {
	Table() *experiments.Table
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ecgsim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", `figure to regenerate: 3..9, "all", "ablations", or "extensions"`)
		seed     = fs.Int64("seed", 1, "random seed")
		scale    = fs.Float64("scale", 1.0, "experiment scale in (0,1]; 1.0 is the paper's 500-cache scale")
		trials   = fs.Int("trials", 1, "number of seeds to average over")
		parallel = fs.Int("parallel", 4, "sweep-point parallelism")
		quiet    = fs.Bool("q", false, "suppress progress output")
		outPath  = fs.String("out", "", "also append rendered tables to this file")
		obsAddr  = fs.String("obs-addr", "", "serve live /metrics, /debug/vars, /debug/pprof, and /trace on this host:port (\":0\" for ephemeral; results are identical with or without)")
		obsWait  = fs.Duration("obs-linger", 0, "keep the -obs-addr endpoint up this long after the run finishes, for scraping")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel, Trials: *trials}
	if *obsAddr != "" {
		opts.Obs = obs.New()
		srv, err := obs.Serve(*obsAddr, opts.Obs)
		if err != nil {
			return err
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(w, "observability endpoint on http://%s/metrics\n", srv.Addr())
		}
		if *obsWait > 0 {
			defer time.Sleep(*obsWait)
		}
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	type entry struct {
		name string
		run  func(experiments.Options) (tabler, error)
	}
	figures := map[string]entry{
		"3": {"Figure 3", func(o experiments.Options) (tabler, error) { return experiments.Fig3(o) }},
		"4": {"Figure 4", func(o experiments.Options) (tabler, error) { return experiments.Fig4(o) }},
		"5": {"Figure 5", func(o experiments.Options) (tabler, error) { return experiments.Fig5(o) }},
		"6": {"Figure 6", func(o experiments.Options) (tabler, error) { return experiments.Fig6(o) }},
		"7": {"Figure 7", func(o experiments.Options) (tabler, error) { return experiments.Fig7(o) }},
		"8": {"Figure 8", func(o experiments.Options) (tabler, error) { return experiments.Fig8(o) }},
		"9": {"Figure 9", func(o experiments.Options) (tabler, error) { return experiments.Fig9(o) }},
	}
	ablations := []entry{
		{"Ablation theta", func(o experiments.Options) (tabler, error) { return experiments.AblationTheta(o) }},
		{"Ablation PLSet M", func(o experiments.Options) (tabler, error) { return experiments.AblationPLSetM(o) }},
		{"Ablation probe noise", func(o experiments.Options) (tabler, error) { return experiments.AblationProbeNoise(o) }},
		{"Ablation failures", func(o experiments.Options) (tabler, error) { return experiments.AblationFailures(o) }},
	}
	extensions := []entry{
		{"Extension representations", func(o experiments.Options) (tabler, error) { return experiments.RepresentationStudy(o) }},
		{"Extension beacons", func(o experiments.Options) (tabler, error) { return experiments.AblationBeacons(o) }},
		{"Extension cache policy", func(o experiments.Options) (tabler, error) { return experiments.AblationCachePolicy(o) }},
		{"Extension substrate", func(o experiments.Options) (tabler, error) { return experiments.SubstrateStudy(o) }},
		{"Extension probe overhead", func(o experiments.Options) (tabler, error) { return experiments.ProbeOverheadStudy(o) }},
		{"Extension freshness", func(o experiments.Options) (tabler, error) { return experiments.FreshnessStudy(o) }},
		{"Extension protocol resilience", func(o experiments.Options) (tabler, error) { return experiments.ProtocolResilienceStudy(o) }},
	}

	var todo []entry
	switch strings.ToLower(*fig) {
	case "all":
		for _, key := range []string{"3", "4", "5", "6", "7", "8", "9"} {
			todo = append(todo, figures[key])
		}
	case "ablations":
		todo = ablations
	case "extensions":
		todo = extensions
	default:
		e, ok := figures[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (want 3..9, all, ablations, or extensions)", *fig)
		}
		todo = []entry{e}
	}

	var outFile *os.File
	if *outPath != "" {
		var err error
		outFile, err = os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open -out file: %w", err)
		}
		defer outFile.Close()
	}

	for _, e := range todo {
		start := time.Now()
		if !*quiet {
			fmt.Fprintf(w, "running %s (scale=%g, seed=%d, trials=%d)...\n", e.name, *scale, *seed, *trials)
		}
		result, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if !*quiet {
			fmt.Fprintf(w, "done in %.1fs\n", time.Since(start).Seconds())
		}
		if err := result.Table().Render(w); err != nil {
			return err
		}
		if outFile != nil {
			if err := result.Table().Render(outFile); err != nil {
				return fmt.Errorf("write -out file: %w", err)
			}
		}
	}
	return nil
}
