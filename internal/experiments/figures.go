package experiments

import (
	"fmt"
	"strconv"

	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/simrand"
)

// DefaultTheta is the SDSL server-distance sensitivity used by the latency
// experiments (the paper leaves θ as a tunable; see AblationTheta).
const DefaultTheta = 1.0

// landmarksFor returns (L, M) honoring the paper's L=25, M=4 while keeping
// the PLSet within the network: M·(L−1) ≤ n.
func landmarksFor(n int) (l, m int) {
	p := landmark.Fit(paperNumLandmarks, paperPLSetM, n)
	return p.L, p.M
}

// trialSeed derives the seed of one trial.
func trialSeed(o Options, trial int) int64 {
	return o.Seed + int64(trial)*7919
}

// ---------------------------------------------------------------------------
// Figure 3: average latency vs average group size (all / nearest / farthest).
// ---------------------------------------------------------------------------

// Fig3Point is one group-size sweep point.
type Fig3Point struct {
	GroupSize int
	K         int
	AllMS     float64
	NearMS    float64
	FarMS     float64
}

// Fig3Result holds the Figure 3 series.
type Fig3Result struct {
	NumCaches  int
	SubsetSize int
	Points     []Fig3Point
}

// Fig3 reproduces Figure 3: a 500-cache network partitioned by the SL
// scheme into groups of varying average size; reports mean latency for the
// whole network and for the caches nearest/farthest from the origin.
func Fig3(o Options) (*Fig3Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	subset := maxInt(n/10, 5)
	fractions := []float64{0.004, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}
	var sizes []int
	for _, f := range fractions {
		s := int(f * float64(n))
		if s < 2 {
			s = 2
		}
		if len(sizes) > 0 && sizes[len(sizes)-1] == s {
			continue
		}
		sizes = append(sizes, s)
	}

	res := &Fig3Result{NumCaches: n, SubsetSize: subset, Points: make([]Fig3Point, len(sizes))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 17, len(sizes), func(e *env, _ int64, src *simrand.Source, i int) error {
		k := (n + sizes[i] - 1) / sizes[i]
		rep, _, err := e.simulate(core.SL(l, m), k, src.SplitN("size", i))
		if err != nil {
			return err
		}
		res.Points[i].GroupSize = sizes[i]
		res.Points[i].K = k
		res.Points[i].AllMS += rep.MeanLatency() / float64(o.Trials)
		res.Points[i].NearMS += rep.MeanLatencyOf(e.nw.NearestCaches(subset)) / float64(o.Trials)
		res.Points[i].FarMS += rep.MeanLatencyOf(e.nw.FarthestCaches(subset)) / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the Figure 3 series.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 3: avg latency vs avg group size (N=%d caches, SL scheme)", r.NumCaches),
		Columns: []string{"avg group size", "K", "all caches (ms)",
			fmt.Sprintf("%d nearest (ms)", r.SubsetSize), fmt.Sprintf("%d farthest (ms)", r.SubsetSize)},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.GroupSize), strconv.Itoa(p.K), f1(p.AllMS), f1(p.NearMS), f1(p.FarMS),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: U-curves; nearest caches bottom out at smaller group sizes than farthest caches")
	return t
}

// ---------------------------------------------------------------------------
// Figures 4-6: landmark selection accuracy (group interaction cost).
// ---------------------------------------------------------------------------

// selectors returns the three landmark selection strategies of §5.1.
func selectors() []landmark.Selector {
	return []landmark.Selector{landmark.Greedy{}, landmark.Random{}, landmark.MinDist{}}
}

// addSelectorCosts forms a plan of k groups with each of selectors() and
// adds each plan's average group interaction cost, divided by trials, to
// the matching entry of dst (greedy, random, min-dist). split supplies the
// source of each selector, named and numbered as in selectors().
func (e *env) addSelectorCosts(l, m, k, trials int, split func(name string, s int) *simrand.Source, dst [3]*float64) error {
	for s, sel := range selectors() {
		cost, err := gicost(e, sel, l, m, k, split(sel.Name(), s))
		if err != nil {
			return fmt.Errorf("%s: %w", sel.Name(), err)
		}
		*dst[s] += cost / float64(trials)
	}
	return nil
}

// gicost forms groups with the given selector and returns the average group
// interaction cost.
func gicost(e *env, sel landmark.Selector, l, m, k int, src *simrand.Source) (float64, error) {
	cfg := core.SL(l, m)
	cfg.Selector = sel
	plan, err := e.formGroups(cfg, k, src)
	if err != nil {
		return 0, err
	}
	return metrics.AvgGroupInteractionCost(e.nw, plan.Groups()), nil
}

// Fig4Point is one network-size sweep point.
type Fig4Point struct {
	NumCaches int
	K         int
	GreedyMS  float64
	RandomMS  float64
	MinDistMS float64
}

// Fig4Result holds the Figure 4 series.
type Fig4Result struct {
	Points []Fig4Point
}

// Fig4 reproduces Figure 4: clustering accuracy (average group interaction
// cost) of the three landmark selection techniques as the network size
// varies, with K = 10% of N.
func Fig4(o Options) (*Fig4Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	var sizes []int
	for _, base := range []int{100, 200, 300, 400, 500} {
		sizes = append(sizes, o.scaleInt(base, 20))
	}
	res := &Fig4Result{Points: make([]Fig4Point, len(sizes))}
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		err := forEach(len(sizes), o.Parallelism, func(i int) error {
			n := sizes[i]
			e, err := newEnv(n, o, seed+int64(i)*131, false)
			if err != nil {
				return err
			}
			l, m := landmarksFor(n)
			k := maxInt(n/10, 1)
			p := &res.Points[i]
			p.NumCaches = n
			p.K = k
			return e.addSelectorCosts(l, m, k, o.Trials, simrand.New(seed+int64(i)).SplitN,
				[3]*float64{&p.GreedyMS, &p.RandomMS, &p.MinDistMS})
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the Figure 4 series.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:   "Figure 4: landmark selection vs clustering accuracy (K = 10% of N)",
		Columns: []string{"caches", "K", "SL greedy (ms)", "random (ms)", "min-dist (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.NumCaches), strconv.Itoa(p.K), f1(p.GreedyMS), f1(p.RandomMS), f1(p.MinDistMS),
		})
	}
	t.Notes = append(t.Notes, "expected shape: greedy <= random <= min-dist at every size")
	return t
}

// Fig5Point is one group-count sweep point.
type Fig5Point struct {
	K         int
	GreedyMS  float64
	RandomMS  float64
	MinDistMS float64
}

// Fig5Result holds the Figure 5 series.
type Fig5Result struct {
	NumCaches int
	Points    []Fig5Point
}

// Fig5 reproduces Figure 5: clustering accuracy of the three landmark
// selection techniques on a 500-cache network as the number of groups
// varies.
func Fig5(o Options) (*Fig5Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	ks := kSweep(n)
	res := &Fig5Result{NumCaches: n, Points: make([]Fig5Point, len(ks))}
	l, m := landmarksFor(n)
	err := sweep(o, n, false, 29, len(ks), func(e *env, _ int64, src *simrand.Source, i int) error {
		p := &res.Points[i]
		p.K = ks[i]
		return e.addSelectorCosts(l, m, ks[i], o.Trials, pointSplit(src, i),
			[3]*float64{&p.GreedyMS, &p.RandomMS, &p.MinDistMS})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pointSplit names each selector's source by selector and sweep point i.
func pointSplit(src *simrand.Source, i int) func(name string, s int) *simrand.Source {
	return func(name string, s int) *simrand.Source {
		return src.SplitN(fmt.Sprintf("%s/%d", name, i), s)
	}
}

// kSweep returns the paper's K grid {10,25,50,75,100} scaled to n (the
// paper's grid is for n=500).
func kSweep(n int) []int {
	fractions := []float64{0.02, 0.05, 0.1, 0.15, 0.2}
	var ks []int
	for _, f := range fractions {
		k := int(f * float64(n))
		if k < 2 {
			k = 2
		}
		if len(ks) > 0 && ks[len(ks)-1] == k {
			continue
		}
		ks = append(ks, k)
	}
	return ks
}

// Table renders the Figure 5 series.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 5: landmark selection vs clustering accuracy (N=%d, varying K)", r.NumCaches),
		Columns: []string{"K", "SL greedy (ms)", "random (ms)", "min-dist (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.K), f1(p.GreedyMS), f1(p.RandomMS), f1(p.MinDistMS)})
	}
	t.Notes = append(t.Notes, "expected shape: greedy best at every K")
	return t
}

// Fig6Point is one landmark-count sweep point.
type Fig6Point struct {
	L         int
	GreedyMS  float64
	RandomMS  float64
	MinDistMS float64
}

// Fig6Result holds the Figure 6 series.
type Fig6Result struct {
	NumCaches int
	K         int
	Points    []Fig6Point
}

// Fig6 reproduces Figure 6: the effect of the number of landmarks (10, 20,
// 25) on clustering accuracy for each selection technique, K=10, N=500.
func Fig6(o Options) (*Fig6Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	// The paper uses K=10 at N=500 (2% of N); keep K large enough that the
	// clustering stays non-degenerate at reduced scales.
	k := maxInt(n/50, 6)
	ls := []int{10, 20, 25}
	res := &Fig6Result{NumCaches: n, K: k, Points: make([]Fig6Point, len(ls))}
	err := sweep(o, n, false, 31, len(ls), func(e *env, _ int64, src *simrand.Source, i int) error {
		// L is the swept variable, so shrink M first; Fit then shrinks L
		// only if even M = 1 does not fit.
		m := paperPLSetM
		if m*(ls[i]-1) > n {
			m = maxInt(n/(ls[i]-1), 1)
		}
		lm := landmark.Fit(ls[i], m, n)
		p := &res.Points[i]
		p.L = ls[i]
		return e.addSelectorCosts(lm.L, lm.M, k, o.Trials, pointSplit(src, i),
			[3]*float64{&p.GreedyMS, &p.RandomMS, &p.MinDistMS})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the Figure 6 series.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: number of landmarks vs clustering accuracy (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"landmarks", "SL greedy (ms)", "random (ms)", "min-dist (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.L), f1(p.GreedyMS), f1(p.RandomMS), f1(p.MinDistMS)})
	}
	t.Notes = append(t.Notes, "expected shape: accuracy improves with more landmarks, diminishing past ~25; greedy best throughout")
	return t
}

// ---------------------------------------------------------------------------
// Figure 7: feature vectors vs Euclidean (GNP) position representation.
// ---------------------------------------------------------------------------

// Fig7Point is one group-count sweep point.
type Fig7Point struct {
	K            int
	FeatureVecMS float64
	EuclideanMS  float64
	RelativeDiff float64 // (euclidean - featurevec) / featurevec
}

// Fig7Result holds the Figure 7 series.
type Fig7Result struct {
	NumCaches int
	Points    []Fig7Point
}

// Fig7 reproduces Figure 7: group interaction costs of the SL scheme's
// feature-vector representation vs GNP Euclidean-space clustering, using
// the same greedily-chosen landmark set.
func Fig7(o Options) (*Fig7Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	ks := kSweep(n)
	res := &Fig7Result{NumCaches: n, Points: make([]Fig7Point, len(ks))}
	l, m := landmarksFor(n)
	err := sweep(o, n, false, 37, len(ks), func(e *env, _ int64, src *simrand.Source, i int) error {
		res.Points[i].K = ks[i]
		planFV, err := e.formGroups(core.SL(l, m), ks[i], src.SplitN("fv", i))
		if err != nil {
			return fmt.Errorf("feature vector: %w", err)
		}
		planEU, err := e.formGroups(core.EuclideanScheme(l, m, 5), ks[i], src.SplitN("eu", i))
		if err != nil {
			return fmt.Errorf("euclidean: %w", err)
		}
		fv := metrics.AvgGroupInteractionCost(e.nw, planFV.Groups())
		eu := metrics.AvgGroupInteractionCost(e.nw, planEU.Groups())
		res.Points[i].FeatureVecMS += fv / float64(o.Trials)
		res.Points[i].EuclideanMS += eu / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		if res.Points[i].FeatureVecMS > 0 {
			res.Points[i].RelativeDiff = (res.Points[i].EuclideanMS - res.Points[i].FeatureVecMS) / res.Points[i].FeatureVecMS
		}
	}
	return res, nil
}

// Table renders the Figure 7 series.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 7: position representation vs clustering accuracy (N=%d)", r.NumCaches),
		Columns: []string{"K", "feature vectors (ms)", "GNP euclidean (ms)", "rel. diff"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.K), f1(p.FeatureVecMS), f1(p.EuclideanMS), fmt.Sprintf("%+.1f%%", p.RelativeDiff*100),
		})
	}
	t.Notes = append(t.Notes, "expected shape: the two representations stay within a few percent of each other")
	return t
}

// ---------------------------------------------------------------------------
// Figures 8-9: SDSL vs SL end-to-end latency.
// ---------------------------------------------------------------------------

// Fig8Point is one network-size sweep point.
type Fig8Point struct {
	NumCaches int
	SL10MS    float64 // SL, K = 10% of N
	SDSL10MS  float64
	SL20MS    float64 // SL, K = 20% of N
	SDSL20MS  float64
}

// Fig8Result holds the Figure 8 series.
type Fig8Result struct {
	Theta  float64
	Points []Fig8Point
}

// Fig8 reproduces Figure 8: average cache latency of the SL and SDSL
// schemes as the network size varies, at K = 10% and K = 20% of N.
func Fig8(o Options) (*Fig8Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	var sizes []int
	for _, base := range []int{100, 200, 300, 400, 500} {
		sizes = append(sizes, o.scaleInt(base, 20))
	}
	res := &Fig8Result{Theta: DefaultTheta, Points: make([]Fig8Point, len(sizes))}
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		err := forEach(len(sizes), o.Parallelism, func(i int) error {
			n := sizes[i]
			e, err := newEnv(n, o, seed+int64(i)*131, true)
			if err != nil {
				return err
			}
			l, m := landmarksFor(n)
			src := simrand.New(seed + int64(i))
			p := &res.Points[i]
			p.NumCaches = n
			for _, frac := range []struct {
				pct      int
				sl, sdsl *float64
			}{
				{10, &p.SL10MS, &p.SDSL10MS},
				{20, &p.SL20MS, &p.SDSL20MS},
			} {
				k := maxInt(n*frac.pct/100, 2)
				sl, sdsl, err := e.slVsSDSL(l, m, k, src.SplitN("sl", frac.pct), src.SplitN("sdsl", frac.pct))
				if err != nil {
					return fmt.Errorf("k=%d: %w", k, err)
				}
				*frac.sl += sl / float64(o.Trials)
				*frac.sdsl += sdsl / float64(o.Trials)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the Figure 8 series.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 8: SL vs SDSL average latency, varying network size (theta=%g)", r.Theta),
		Columns: []string{"caches", "SL K=10% (ms)", "SDSL K=10% (ms)", "SL K=20% (ms)", "SDSL K=20% (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.NumCaches), f1(p.SL10MS), f1(p.SDSL10MS), f1(p.SL20MS), f1(p.SDSL20MS),
		})
	}
	t.Notes = append(t.Notes, "expected shape: SDSL below SL at every size and both K settings")
	return t
}

// Fig9Point is one group-count sweep point.
type Fig9Point struct {
	K      int
	SLMS   float64
	SDSLMS float64
}

// Fig9Result holds the Figure 9 series.
type Fig9Result struct {
	NumCaches int
	Theta     float64
	Points    []Fig9Point
}

// Fig9 reproduces Figure 9: average client latency of the SL and SDSL
// schemes on a 500-cache network as the number of groups varies.
func Fig9(o Options) (*Fig9Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	ks := kSweep(n)
	res := &Fig9Result{NumCaches: n, Theta: DefaultTheta, Points: make([]Fig9Point, len(ks))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 41, len(ks), func(e *env, _ int64, src *simrand.Source, i int) error {
		sl, sdsl, err := e.slVsSDSL(l, m, ks[i], src.SplitN("sl", i), src.SplitN("sdsl", i))
		if err != nil {
			return err
		}
		res.Points[i].K = ks[i]
		res.Points[i].SLMS += sl / float64(o.Trials)
		res.Points[i].SDSLMS += sdsl / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the Figure 9 series.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 9: SL vs SDSL average latency, varying K (N=%d, theta=%g)", r.NumCaches, r.Theta),
		Columns: []string{"K", "SL (ms)", "SDSL (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.K), f1(p.SLMS), f1(p.SDSLMS)})
	}
	t.Notes = append(t.Notes, "expected shape: SDSL below SL at every K")
	return t
}
