package experiments

import (
	"fmt"
	"strconv"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
)

// OverheadPoint is one (L, M) configuration with its measurement bill.
type OverheadPoint struct {
	L          int
	M          int
	GICostMS   float64
	ProbesSent int64
	// ProbesPerCache is the total probing bill normalized by network size.
	ProbesPerCache float64
}

// OverheadResult holds the measurement-overhead study.
type OverheadResult struct {
	NumCaches int
	K         int
	Points    []OverheadPoint
	// OracleMS is the idealized (noise-free, full-knowledge) selector's
	// cost — the accuracy ceiling the configurations chase.
	OracleMS float64
}

// ProbeOverheadStudy quantifies the trade-off the paper's L and M
// parameters control: the total number of probe packets the scheme sends
// (PLSet pairwise probing plus per-cache feature-vector probing) against
// the clustering accuracy achieved. The Oracle selector provides the
// accuracy ceiling.
func ProbeOverheadStudy(o Options) (*OverheadResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	lBase, _ := landmarksFor(n)
	configs := []struct{ l, m int }{
		{maxInt(lBase*2/5, 2), 1},
		{maxInt(lBase*2/5, 2), 4},
		{lBase, 1},
		{lBase, 2},
		{lBase, 4},
	}
	res := &OverheadResult{NumCaches: n, K: k, Points: make([]OverheadPoint, len(configs))}

	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		base, err := newEnv(n, o, seed, false)
		if err != nil {
			return nil, err
		}
		src := simrand.New(seed + 79)

		// Oracle ceiling (no probing cost by construction).
		oracleCfg := core.SL(lBase, 1)
		oracleCfg.Selector = landmark.Oracle{}
		oraclePlan, err := base.formGroups(oracleCfg, k, src.Split("oracle"))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		res.OracleMS += metrics.AvgGroupInteractionCost(base.nw, oraclePlan.Groups()) / float64(o.Trials)

		err = forEach(len(configs), o.Parallelism, func(i int) error {
			c := landmark.Fit(configs[i].l, configs[i].m, n)
			// A fresh prober per configuration isolates its probe counters.
			prober, err := probe.NewProber(base.nw, probe.DefaultConfig(), simrand.New(seed+int64(i)*389))
			if err != nil {
				return err
			}
			e := *base
			e.prober = prober
			plan, err := e.formGroups(core.SL(c.L, c.M), k, src.SplitN("cfg", i))
			if err != nil {
				return fmt.Errorf("L=%d M=%d: %w", c.L, c.M, err)
			}
			res.Points[i].L = c.L
			res.Points[i].M = c.M
			res.Points[i].GICostMS += metrics.AvgGroupInteractionCost(e.nw, plan.Groups()) / float64(o.Trials)
			res.Points[i].ProbesSent += prober.ProbesSent() / int64(o.Trials)
			res.Points[i].ProbesPerCache += float64(prober.ProbesSent()) / float64(n) / float64(o.Trials)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the overhead study.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: measurement overhead vs accuracy (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"L", "M", "GICost (ms)", "probes sent", "probes/cache"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.L), strconv.Itoa(p.M), f1(p.GICostMS),
			strconv.FormatInt(p.ProbesSent, 10), f1(p.ProbesPerCache),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("oracle (free global knowledge) ceiling: %.1f ms", r.OracleMS))
	t.Notes = append(t.Notes, "accuracy buys probes: the paper's L=25, M=4 sits near the knee")
	return t
}
