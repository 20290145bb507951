package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"

	"edgecachegroups/internal/obs"
)

// goldenStudies lists every study, each a pure function of its Options,
// with the FNV-64a of its "%+v" rendering at goldenOptions.
var goldenStudies = []struct {
	name string
	run  func(Options) (any, error)
	hash uint64
}{
	{"Fig3", func(o Options) (any, error) { return Fig3(o) }, 0x4f608c60eeed8a87},
	{"Fig4", func(o Options) (any, error) { return Fig4(o) }, 0xde7930a5b82e7033},
	{"Fig5", func(o Options) (any, error) { return Fig5(o) }, 0x34f03ae576028e01},
	{"Fig6", func(o Options) (any, error) { return Fig6(o) }, 0xac03d0655fe25d0c},
	{"Fig7", func(o Options) (any, error) { return Fig7(o) }, 0xf731b92142bd9959},
	{"Fig8", func(o Options) (any, error) { return Fig8(o) }, 0xba21bab6b4859791},
	{"Fig9", func(o Options) (any, error) { return Fig9(o) }, 0x44717c5ed965f1a7},
	{"Theta", func(o Options) (any, error) { return AblationTheta(o) }, 0x8f8fc3aa04782a14},
	{"PLSetM", func(o Options) (any, error) { return AblationPLSetM(o) }, 0x5e56866ec330c6b7},
	{"Noise", func(o Options) (any, error) { return AblationProbeNoise(o) }, 0x394e53fb549053c7},
	{"Failures", func(o Options) (any, error) { return AblationFailures(o) }, 0x9b747cea5685302b},
	{"Representation", func(o Options) (any, error) { return RepresentationStudy(o) }, 0x2dffb8e21effd789},
	{"Beacons", func(o Options) (any, error) { return AblationBeacons(o) }, 0x627cbdf60287d700},
	{"Policy", func(o Options) (any, error) { return AblationCachePolicy(o) }, 0xc9ecaba8c72058df},
	{"Substrate", func(o Options) (any, error) { return SubstrateStudy(o) }, 0x2e09184ba4e24c09},
	{"Overhead", func(o Options) (any, error) { return ProbeOverheadStudy(o) }, 0x114c5dafd34a25d2},
	{"Freshness", func(o Options) (any, error) { return FreshnessStudy(o) }, 0xee2397e7bc4f27cc},
	// Re-pinned when the transport began to release delayed copies at
	// quiescence instead of stranding them: only the delay row moved.
	{"Protocol", func(o Options) (any, error) { return ProtocolResilienceStudy(o) }, 0xd2aee26e0e030e62},
}

// observedStages counts, per study at goldenOptions, the plans it forms and
// the plans it simulates: trials × sweep points × plans per point, plus any
// per-trial extra. Each formation must report one cluster span to
// Options.Obs, and each simulation one simulate span.
var observedStages = map[string]struct{ forms, sims int }{
	"Fig3":           {2 * 5, 2 * 5},
	"Fig4":           {2 * 5 * 3, 0},
	"Fig5":           {2 * 4 * 3, 0},
	"Fig6":           {2 * 3 * 3, 0},
	"Fig7":           {2 * 4 * 2, 0},
	"Fig8":           {2 * 5 * 4, 2 * 5 * 4},
	"Fig9":           {2 * 4 * 2, 2 * 4 * 2},
	"Theta":          {2 * 5, 2 * 5},
	"PLSetM":         {2 * 4, 0},
	"Noise":          {2 * 5 * 3, 0},
	"Failures":       {2 * 4 * 2, 2 * 4 * 2},
	"Representation": {2 * 4 * 3, 0},
	"Beacons":        {2 * 4, 2 * 4},
	"Policy":         {2 * 2, 2 * 2},
	"Substrate":      {2 * 2 * (3 + 2), 2 * 2 * 2},
	"Overhead":       {2 * (1 + 5), 0},
	"Freshness":      {2 * 4, 2 * 4},
	"Protocol":       {2 * 7, 0},
}

// goldenOptions is small enough to run every study in about a second, and
// uses two trials so the cross-trial accumulation is pinned too.
var goldenOptions = Options{Seed: 2, Scale: 0.08, Parallelism: 2, Trials: 2}

// resultHash is the FNV-64a of the result's "%+v" rendering, which prints
// every float at full precision: a changed rounding changes the hash.
func resultHash(res any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// TestResultsGolden pins the reproduced numbers of every deterministic
// study, so a refactor of the experiment code cannot move a table. Each
// study runs twice, without and with an observability sink: both runs must
// match the golden, and the observed run must report every formation and
// simulation it ran.
func TestResultsGolden(t *testing.T) {
	for _, s := range goldenStudies {
		t.Run(s.name, func(t *testing.T) {
			want, ok := observedStages[s.name]
			if !ok {
				t.Fatalf("no observedStages entry for %s", s.name)
			}
			o := goldenOptions
			for _, sink := range []*obs.Obs{nil, obs.New()} {
				o.Obs = sink
				res, err := s.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultHash(res); got != s.hash {
					t.Errorf("obs=%t: result hash %#016x, want %#016x\n%+v", sink != nil, got, s.hash, res)
				}
			}
			forms := o.Obs.Histogram("stage_cluster_ms").Count()
			sims := o.Obs.Histogram("stage_simulate_ms").Count()
			if forms != int64(want.forms) || sims != int64(want.sims) {
				t.Errorf("observed %d formations and %d simulations, want %d and %d",
					forms, sims, want.forms, want.sims)
			}
		})
	}
}
