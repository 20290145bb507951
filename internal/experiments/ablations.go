package experiments

import (
	"fmt"
	"strconv"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// ---------------------------------------------------------------------------
// Ablation A: SDSL sensitivity exponent theta.
// ---------------------------------------------------------------------------

// ThetaPoint is one theta sweep point.
type ThetaPoint struct {
	Theta     float64
	LatencyMS float64
	// NearMeanSize and FarMeanSize are the mean group sizes of the caches
	// nearest / farthest from the origin — they show the mechanism.
	NearMeanSize float64
	FarMeanSize  float64
}

// ThetaResult holds the theta ablation series.
type ThetaResult struct {
	NumCaches int
	K         int
	Points    []ThetaPoint
}

// AblationTheta sweeps the SDSL sensitivity parameter theta. theta=0
// degenerates to the plain SL scheme; larger values concentrate more and
// smaller groups near the origin server.
func AblationTheta(o Options) (*ThetaResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	thetas := []float64{0, 0.5, 1, 2, 4}
	res := &ThetaResult{NumCaches: n, K: k, Points: make([]ThetaPoint, len(thetas))}
	l, m := landmarksFor(n)
	subset := maxInt(n/10, 5)
	err := sweep(o, n, true, 43, len(thetas), func(e *env, _ int64, src *simrand.Source, i int) error {
		cfg := core.SDSL(l, m, thetas[i])
		if thetas[i] == 0 {
			cfg = core.SL(l, m)
		}
		rep, plan, err := e.simulate(cfg, k, src.SplitN("theta", i))
		if err != nil {
			return err
		}
		sizes := plan.Sizes()
		meanSize := func(set []topology.CacheIndex) float64 {
			var sum float64
			for _, c := range set {
				g, err := plan.GroupOf(c)
				if err != nil {
					continue
				}
				sum += float64(sizes[g])
			}
			return sum / float64(len(set))
		}
		res.Points[i].Theta = thetas[i]
		res.Points[i].LatencyMS += rep.MeanLatency() / float64(o.Trials)
		res.Points[i].NearMeanSize += meanSize(e.nw.NearestCaches(subset)) / float64(o.Trials)
		res.Points[i].FarMeanSize += meanSize(e.nw.FarthestCaches(subset)) / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the theta ablation.
func (r *ThetaResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: SDSL theta sweep (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"theta", "avg latency (ms)", "mean group size (near)", "mean group size (far)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", p.Theta), f1(p.LatencyMS), f2(p.NearMeanSize), f2(p.FarMeanSize),
		})
	}
	t.Notes = append(t.Notes, "theta=0 is the plain SL scheme; growing theta shrinks near-origin groups")
	return t
}

// ---------------------------------------------------------------------------
// Ablation B: PLSet multiplier M.
// ---------------------------------------------------------------------------

// MPoint is one PLSet-multiplier sweep point.
type MPoint struct {
	M        int
	GICostMS float64
	// ProbePairs is the number of pairwise PLSet measurements the greedy
	// selector needed (the measurement overhead the paper's M trades off).
	ProbePairs int
}

// MResult holds the M ablation series.
type MResult struct {
	NumCaches int
	K         int
	L         int
	Points    []MPoint
}

// AblationPLSetM sweeps the potential-landmark-set multiplier M: larger M
// gives the greedy selector more candidates (better dispersion) at the cost
// of more pairwise probe traffic.
func AblationPLSetM(o Options) (*MResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	ms := []int{1, 2, 4, 8}
	l, _ := landmarksFor(n)
	res := &MResult{NumCaches: n, K: k, L: l, Points: make([]MPoint, len(ms))}
	err := sweep(o, n, false, 47, len(ms), func(e *env, _ int64, src *simrand.Source, i int) error {
		lm := landmark.Fit(l, ms[i], n)
		cost, err := gicost(e, landmark.Greedy{}, lm.L, lm.M, k, src.SplitN("m", i))
		if err != nil {
			return err
		}
		plPoints := lm.M*(lm.L-1) + 1
		res.Points[i].M = ms[i]
		res.Points[i].GICostMS += cost / float64(o.Trials)
		res.Points[i].ProbePairs = plPoints * (plPoints - 1) / 2
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the M ablation.
func (r *MResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: PLSet multiplier M (N=%d, K=%d, L=%d)", r.NumCaches, r.K, r.L),
		Columns: []string{"M", "avg group interaction cost (ms)", "PLSet probe pairs"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.M), f1(p.GICostMS), strconv.Itoa(p.ProbePairs)})
	}
	t.Notes = append(t.Notes, "larger M improves landmark dispersion at quadratic probe cost")
	return t
}

// ---------------------------------------------------------------------------
// Ablation C: probe measurement noise.
// ---------------------------------------------------------------------------

// NoisePoint is one measurement-noise sweep point.
type NoisePoint struct {
	NoiseFrac float64
	GreedyMS  float64
	RandomMS  float64
	MinDistMS float64
}

// NoiseResult holds the noise ablation series.
type NoiseResult struct {
	NumCaches int
	K         int
	Points    []NoisePoint
}

// AblationProbeNoise sweeps the RTT measurement noise and reports the
// clustering accuracy of each landmark selector — showing how measurement
// error interacts with landmark quality.
func AblationProbeNoise(o Options) (*NoiseResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	noises := []float64{0, 0.05, 0.1, 0.2, 0.4}
	res := &NoiseResult{NumCaches: n, K: k, Points: make([]NoisePoint, len(noises))}
	l, m := landmarksFor(n)
	err := sweep(o, n, false, 53, len(noises), func(base *env, seed int64, src *simrand.Source, i int) error {
		cfg := probe.DefaultConfig()
		cfg.NoiseFrac = noises[i]
		prober, err := probe.NewProber(base.nw, cfg, simrand.New(seed+int64(i)*257))
		if err != nil {
			return err
		}
		e := *base
		e.prober = prober
		p := &res.Points[i]
		p.NoiseFrac = noises[i]
		return e.addSelectorCosts(l, m, k, o.Trials, pointSplit(src, i),
			[3]*float64{&p.GreedyMS, &p.RandomMS, &p.MinDistMS})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the noise ablation.
func (r *NoiseResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: probe noise vs clustering accuracy (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"noise frac", "SL greedy (ms)", "random (ms)", "min-dist (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", p.NoiseFrac), f1(p.GreedyMS), f1(p.RandomMS), f1(p.MinDistMS),
		})
	}
	t.Notes = append(t.Notes, "all selectors degrade with noise; dispersed (greedy) landmarks degrade slowest")
	return t
}

// ---------------------------------------------------------------------------
// Ablation D: cache-node failures.
// ---------------------------------------------------------------------------

// FailurePoint is one failure-rate sweep point.
type FailurePoint struct {
	FailedFrac float64
	SLMS       float64
	SDSLMS     float64
}

// FailureResult holds the failure-injection series.
type FailureResult struct {
	NumCaches int
	K         int
	Points    []FailurePoint
}

// AblationFailures injects cache-node failures and measures the latency of
// SL and SDSL partitions as the failed fraction grows: failed members serve
// no cooperative lookups and their clients fail over to the origin.
func AblationFailures(o Options) (*FailureResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	fracs := []float64{0, 0.05, 0.1, 0.2}
	res := &FailureResult{NumCaches: n, K: k, Points: make([]FailurePoint, len(fracs))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 59, len(fracs), func(e *env, seed int64, src *simrand.Source, i int) error {
		failedIdx, err := simrand.New(seed+61+int64(i)).SampleWithoutReplacement(n, int(fracs[i]*float64(n)))
		if err != nil {
			return err
		}
		e2 := *e
		for _, f := range failedIdx {
			e2.simCfg.FailedCaches = append(e2.simCfg.FailedCaches, topology.CacheIndex(f))
		}
		sl, sdsl, err := e2.slVsSDSL(l, m, k, src.SplitN("sl", i), src.SplitN("sdsl", i))
		if err != nil {
			return err
		}
		res.Points[i].FailedFrac = fracs[i]
		res.Points[i].SLMS += sl / float64(o.Trials)
		res.Points[i].SDSLMS += sdsl / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the failure ablation.
func (r *FailureResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: cache-node failures (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"failed frac", "SL (ms)", "SDSL (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%g", p.FailedFrac), f1(p.SLMS), f1(p.SDSLMS)})
	}
	t.Notes = append(t.Notes, "latency degrades gracefully as members fail; SDSL retains its edge")
	return t
}
