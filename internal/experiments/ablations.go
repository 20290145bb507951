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
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		e, err := newEnv(n, o, seed, true)
		if err != nil {
			return nil, err
		}
		subset := maxInt(n/10, 5)
		near := e.nw.NearestCaches(subset)
		far := e.nw.FarthestCaches(subset)
		src := simrand.New(seed + 43)
		err = forEach(len(thetas), o.Parallelism, func(i int) error {
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
			res.Points[i].NearMeanSize += meanSize(near) / float64(o.Trials)
			res.Points[i].FarMeanSize += meanSize(far) / float64(o.Trials)
			return nil
		})
		if err != nil {
			return nil, err
		}
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
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		e, err := newEnv(n, o, seed, false)
		if err != nil {
			return nil, err
		}
		src := simrand.New(seed + 47)
		err = forEach(len(ms), o.Parallelism, func(i int) error {
			m := ms[i]
			lEff := l
			if m*(lEff-1) > n {
				lEff = n/m + 1
			}
			cost, err := gicost(e, landmark.Greedy{}, lEff, m, k, src.SplitN("m", i))
			if err != nil {
				return err
			}
			plPoints := m*(lEff-1) + 1
			res.Points[i].M = m
			res.Points[i].GICostMS += cost / float64(o.Trials)
			res.Points[i].ProbePairs = plPoints * (plPoints - 1) / 2
			return nil
		})
		if err != nil {
			return nil, err
		}
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
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		base, err := newEnv(n, o, seed, false)
		if err != nil {
			return nil, err
		}
		src := simrand.New(seed + 53)
		err = forEach(len(noises), o.Parallelism, func(i int) error {
			cfg := probe.DefaultConfig()
			cfg.NoiseFrac = noises[i]
			prober, err := probe.NewProber(base.nw, cfg, simrand.New(seed+int64(i)*257))
			if err != nil {
				return err
			}
			e := &env{nw: base.nw, prober: prober, simCfg: base.simCfg}
			res.Points[i].NoiseFrac = noises[i]
			for s, sel := range selectors() {
				cost, err := gicost(e, sel, l, m, k, src.SplitN(fmt.Sprintf("%s/%d", sel.Name(), i), s))
				if err != nil {
					return fmt.Errorf("%s: %w", sel.Name(), err)
				}
				switch sel.(type) {
				case landmark.Greedy:
					res.Points[i].GreedyMS += cost / float64(o.Trials)
				case landmark.Random:
					res.Points[i].RandomMS += cost / float64(o.Trials)
				case landmark.MinDist:
					res.Points[i].MinDistMS += cost / float64(o.Trials)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
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
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		e, err := newEnv(n, o, seed, true)
		if err != nil {
			return nil, err
		}
		src := simrand.New(seed + 59)
		err = forEach(len(fracs), o.Parallelism, func(i int) error {
			numFailed := int(fracs[i] * float64(n))
			failSrc := simrand.New(seed + 61 + int64(i))
			failedIdx, err := failSrc.SampleWithoutReplacement(n, numFailed)
			if err != nil {
				return err
			}
			simCfg := e.simCfg
			for _, f := range failedIdx {
				simCfg.FailedCaches = append(simCfg.FailedCaches, topology.CacheIndex(f))
			}
			e2 := &env{nw: e.nw, prober: e.prober, catalog: e.catalog, requests: e.requests, updates: e.updates, simCfg: simCfg}
			res.Points[i].FailedFrac = fracs[i]
			repSL, _, err := e2.simulate(core.SL(l, m), k, src.SplitN("sl", i))
			if err != nil {
				return err
			}
			repSD, _, err := e2.simulate(core.SDSL(l, m, DefaultTheta), k, src.SplitN("sdsl", i))
			if err != nil {
				return err
			}
			res.Points[i].SLMS += repSL.MeanLatency() / float64(o.Trials)
			res.Points[i].SDSLMS += repSD.MeanLatency() / float64(o.Trials)
			return nil
		})
		if err != nil {
			return nil, err
		}
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
