package experiments

import (
	"fmt"
	"strconv"

	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/metrics"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// Extension studies beyond the paper's figures: a three-way position
// representation comparison (feature vectors / GNP / Vivaldi), a
// cooperation-mechanism comparison (multicast vs beacon points), a cache
// replacement policy comparison (utility vs LRU), and a topology-substrate
// robustness check (transit-stub vs Waxman).

// ---------------------------------------------------------------------------
// Representation study: feature vectors vs GNP vs Vivaldi.
// ---------------------------------------------------------------------------

// RepresentationPoint is one group-count sweep point.
type RepresentationPoint struct {
	K            int
	FeatureVecMS float64
	GNPMS        float64
	VivaldiMS    float64
}

// RepresentationResult holds the representation study series.
type RepresentationResult struct {
	NumCaches int
	Points    []RepresentationPoint
}

// RepresentationStudy extends Figure 7 with the Vivaldi coordinate system
// (the paper's reference [3]): all three position representations cluster
// the same measured landmark data.
func RepresentationStudy(o Options) (*RepresentationResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	ks := kSweep(n)
	res := &RepresentationResult{NumCaches: n, Points: make([]RepresentationPoint, len(ks))}
	l, m := landmarksFor(n)
	err := sweep(o, n, false, 67, len(ks), func(e *env, _ int64, src *simrand.Source, i int) error {
		res.Points[i].K = ks[i]
		for _, rep := range []struct {
			cfg core.Config
			dst *float64
		}{
			{core.SL(l, m), &res.Points[i].FeatureVecMS},
			{core.EuclideanScheme(l, m, 5), &res.Points[i].GNPMS},
			{core.VivaldiScheme(l, m, 5), &res.Points[i].VivaldiMS},
		} {
			plan, err := e.formGroups(rep.cfg, ks[i], src.SplitN(rep.cfg.Name(), i))
			if err != nil {
				return fmt.Errorf("%s: %w", rep.cfg.Name(), err)
			}
			*rep.dst += metrics.AvgGroupInteractionCost(e.nw, plan.Groups()) / float64(o.Trials)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the representation study.
func (r *RepresentationResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: position representations (N=%d)", r.NumCaches),
		Columns: []string{"K", "feature vectors (ms)", "GNP (ms)", "Vivaldi (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{strconv.Itoa(p.K), f1(p.FeatureVecMS), f1(p.GNPMS), f1(p.VivaldiMS)})
	}
	t.Notes = append(t.Notes, "all three representations should cluster comparably; feature vectors are the cheapest")
	return t
}

// ---------------------------------------------------------------------------
// Cooperation-mechanism study: multicast model vs beacon points.
// ---------------------------------------------------------------------------

// BeaconPoint is one beacon-count sweep point.
type BeaconPoint struct {
	// Beacons is the beacon count (0 = the default multicast model).
	Beacons   int
	LatencyMS float64
	GroupRate float64
}

// BeaconResult holds the cooperation-mechanism series.
type BeaconResult struct {
	NumCaches int
	K         int
	Points    []BeaconPoint
}

// AblationBeacons compares the default multicast-style cooperative lookup
// against the Cache Clouds beacon-point mechanism with 1-4 beacons per
// group.
func AblationBeacons(o Options) (*BeaconResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	counts := []int{0, 1, 2, 4}
	res := &BeaconResult{NumCaches: n, K: k, Points: make([]BeaconPoint, len(counts))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 71, len(counts), func(e *env, _ int64, src *simrand.Source, i int) error {
		e2 := *e
		e2.simCfg.BeaconsPerGroup = counts[i]
		rep, _, err := e2.simulate(core.SDSL(l, m, DefaultTheta), k, src.SplitN("b", i))
		if err != nil {
			return err
		}
		_, groupRate, _ := rep.HitRates()
		res.Points[i].Beacons = counts[i]
		res.Points[i].LatencyMS += rep.MeanLatency() / float64(o.Trials)
		res.Points[i].GroupRate += groupRate / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the cooperation-mechanism study.
func (r *BeaconResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: cooperative lookup mechanism (N=%d, K=%d, SDSL)", r.NumCaches, r.K),
		Columns: []string{"beacons/group", "avg latency (ms)", "group hit rate"},
	}
	for _, p := range r.Points {
		label := strconv.Itoa(p.Beacons)
		if p.Beacons == 0 {
			label = "multicast"
		}
		t.Rows = append(t.Rows, []string{label, f1(p.LatencyMS), fmt.Sprintf("%.1f%%", p.GroupRate*100)})
	}
	t.Notes = append(t.Notes, "beacon points localize the directory; more beacons shorten the directory leg")
	return t
}

// ---------------------------------------------------------------------------
// Replacement policy study: utility vs LRU.
// ---------------------------------------------------------------------------

// PolicyPoint is one policy comparison point.
type PolicyPoint struct {
	Policy    string
	LatencyMS float64
	LocalRate float64
	OriginKB  float64
}

// PolicyResult holds the replacement-policy series.
type PolicyResult struct {
	NumCaches int
	K         int
	Points    []PolicyPoint
}

// AblationCachePolicy compares the Cache Clouds utility-based replacement
// scheme against the LRU baseline under the standard dynamic workload.
func AblationCachePolicy(o Options) (*PolicyResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	policies := []cache.Policy{cache.PolicyUtility, cache.PolicyLRU}
	res := &PolicyResult{NumCaches: n, K: k, Points: make([]PolicyPoint, len(policies))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 73, len(policies), func(e *env, _ int64, src *simrand.Source, i int) error {
		e2 := *e
		e2.simCfg.CachePolicy = policies[i]
		rep, _, err := e2.simulate(core.SDSL(l, m, DefaultTheta), k, src.SplitN("p", i))
		if err != nil {
			return err
		}
		local, _, _ := rep.HitRates()
		res.Points[i].Policy = policies[i].String()
		res.Points[i].LatencyMS += rep.MeanLatency() / float64(o.Trials)
		res.Points[i].LocalRate += local / float64(o.Trials)
		res.Points[i].OriginKB += rep.OriginKB / float64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the replacement-policy study.
func (r *PolicyResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: cache replacement policy (N=%d, K=%d, SDSL)", r.NumCaches, r.K),
		Columns: []string{"policy", "avg latency (ms)", "local hit rate", "origin load (KB)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{p.Policy, f1(p.LatencyMS), fmt.Sprintf("%.1f%%", p.LocalRate*100), f1(p.OriginKB)})
	}
	t.Notes = append(t.Notes, "the Cache Clouds utility policy should match or beat LRU under dynamic content")
	return t
}

// ---------------------------------------------------------------------------
// Substrate study: transit-stub vs Waxman topology.
// ---------------------------------------------------------------------------

// SubstratePoint is one substrate comparison point.
type SubstratePoint struct {
	Substrate string
	GreedyMS  float64
	RandomMS  float64
	MinDistMS float64
	SLLatMS   float64
	SDSLLatMS float64
}

// SubstrateResult holds the substrate robustness series.
type SubstrateResult struct {
	NumCaches int
	K         int
	Points    []SubstratePoint
}

// SubstrateStudy repeats the landmark-selection ordering and the SL/SDSL
// latency comparison on a flat Waxman topology: the paper's qualitative
// results should not depend on the transit-stub hierarchy.
func SubstrateStudy(o Options) (*SubstrateResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	k := maxInt(n/10, 2)
	res := &SubstrateResult{NumCaches: n, K: k, Points: make([]SubstratePoint, 2)}
	l, m := landmarksFor(n)
	for trial := 0; trial < o.Trials; trial++ {
		seed := trialSeed(o, trial)
		ts, err := newEnv(n, o, seed, true)
		if err != nil {
			return nil, err
		}
		wax, err := ts.onWaxman(seed)
		if err != nil {
			return nil, fmt.Errorf("waxman: %w", err)
		}
		for i, sub := range []struct {
			name string
			e    *env
		}{{"transit-stub", ts}, {"waxman", wax}} {
			src := simrand.New(seed + int64(i)*97)
			p := &res.Points[i]
			p.Substrate = sub.name
			err := sub.e.addSelectorCosts(l, m, k, o.Trials,
				func(name string, _ int) *simrand.Source { return src.Split("sel/" + name) },
				[3]*float64{&p.GreedyMS, &p.RandomMS, &p.MinDistMS})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Substrate, err)
			}
			sl, sdsl, err := sub.e.slVsSDSL(l, m, k, src.Split("sl"), src.Split("sdsl"))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Substrate, err)
			}
			p.SLLatMS += sl / float64(o.Trials)
			p.SDSLLatMS += sdsl / float64(o.Trials)
		}
	}
	return res, nil
}

// onWaxman derives the env of a flat Waxman substrate from e: a new graph,
// network and prober drawn from seed as newEnv draws them, and e's traces,
// which depend only on the seed, the cache count and the scale.
func (e *env) onWaxman(seed int64) (*env, error) {
	n := e.nw.NumCaches()
	root := simrand.New(seed)
	params := topology.DefaultWaxmanParams()
	if params.Nodes < n+1 {
		params.Nodes = n + 50
	}
	g, err := topology.GenerateWaxman(params, root.Split("topology"))
	if err != nil {
		return nil, err
	}
	nw, err := topology.NewNetwork(g, topology.PlaceParams{NumCaches: n}, root.Split("placement"))
	if err != nil {
		return nil, err
	}
	prober, err := probe.NewProber(nw, probe.DefaultConfig(), root.Split("probe"))
	if err != nil {
		return nil, err
	}
	wax := *e
	wax.nw, wax.prober = nw, prober
	return &wax, nil
}

// Table renders the substrate study.
func (r *SubstrateResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: topology substrate robustness (N=%d, K=%d)", r.NumCaches, r.K),
		Columns: []string{"substrate", "greedy (ms)", "random (ms)", "min-dist (ms)", "SL latency (ms)", "SDSL latency (ms)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Substrate, f1(p.GreedyMS), f1(p.RandomMS), f1(p.MinDistMS), f1(p.SLLatMS), f1(p.SDSLLatMS),
		})
	}
	t.Notes = append(t.Notes, "the greedy<=random<=min-dist ordering and the SDSL win should survive a flat substrate")
	return t
}

// ---------------------------------------------------------------------------
// Freshness maintenance study: cooperative push invalidation.
// ---------------------------------------------------------------------------

// FreshnessPoint is one group-count sweep point.
type FreshnessPoint struct {
	K int
	// OriginMsgs is the number of invalidation messages the origin sent
	// (one per group holding an updated document).
	OriginMsgs int64
	// TotalHolders is the per-cache push bill (origin + forwards).
	TotalHolders int64
	// Savings is 1 - OriginMsgs/TotalHolders.
	Savings float64
}

// FreshnessResult holds the freshness-maintenance series.
type FreshnessResult struct {
	NumCaches int
	Points    []FreshnessPoint
}

// FreshnessStudy quantifies "collaborative document freshness maintenance"
// (the paper's second motivating use of cache cooperation): with push
// invalidation routed through groups, the origin sends one message per
// group instead of one per holder. Larger groups concentrate holders and
// save more origin bandwidth.
func FreshnessStudy(o Options) (*FreshnessResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	n := o.scaleInt(paperMaxCaches, 40)
	ks := kSweep(n)
	res := &FreshnessResult{NumCaches: n, Points: make([]FreshnessPoint, len(ks))}
	l, m := landmarksFor(n)
	err := sweep(o, n, true, 83, len(ks), func(e *env, _ int64, src *simrand.Source, i int) error {
		e2 := *e
		e2.simCfg.PushInvalidation = true
		rep, _, err := e2.simulate(core.SDSL(l, m, DefaultTheta), ks[i], src.SplitN("k", i))
		if err != nil {
			return err
		}
		res.Points[i].K = ks[i]
		res.Points[i].OriginMsgs += rep.InvalidationsOrigin / int64(o.Trials)
		res.Points[i].TotalHolders += (rep.InvalidationsOrigin + rep.InvalidationsForwarded) / int64(o.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		if res.Points[i].TotalHolders > 0 {
			res.Points[i].Savings = 1 - float64(res.Points[i].OriginMsgs)/float64(res.Points[i].TotalHolders)
		}
	}
	return res, nil
}

// Table renders the freshness study.
func (r *FreshnessResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: cooperative freshness maintenance (N=%d, SDSL, push invalidation)", r.NumCaches),
		Columns: []string{"K", "origin msgs", "per-cache push msgs", "origin savings"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p.K),
			strconv.FormatInt(p.OriginMsgs, 10),
			strconv.FormatInt(p.TotalHolders, 10),
			fmt.Sprintf("%.1f%%", p.Savings*100),
		})
	}
	t.Notes = append(t.Notes, "fewer, larger groups concentrate holders: the origin invalidates once per group")
	return t
}
