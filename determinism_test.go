package ecg_test

// Determinism golden tests: the whole pipeline must be a pure function of
// its seed, and the Plan/Report checksums are the fingerprints that prove
// it. These tests pin three guarantees: same seed -> identical checksum,
// different seed -> different checksum, and probe parallelism -> no effect
// on the outcome (scheduling must not leak into results).

import (
	"fmt"
	"math"
	"testing"

	ecg "edgecachegroups"
	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
)

// formPlan runs the full pipeline (topology -> placement -> probing ->
// group formation) for one seed and scheme, with verification enabled.
func formPlan(t *testing.T, seed int64, cfg ecg.SchemeConfig, k int) (*ecg.Plan, *ecg.Network) {
	t.Helper()
	cfg.Verify = true
	nw, prober, src := buildStack(t, 60, seed)
	gf, err := ecg.NewCoordinator(nw, prober, cfg, src.Split("gf"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gf.FormGroups(k)
	if err != nil {
		t.Fatal(err)
	}
	return plan, nw
}

func TestPlanChecksumGolden(t *testing.T) {
	schemes := []struct {
		name string
		cfg  ecg.SchemeConfig
	}{
		{"SL", ecg.SL(8, 2)},
		{"SDSL", ecg.SDSL(8, 2, 1.0)},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			plan1, nw := formPlan(t, 77, s.cfg, 6)
			plan2, _ := formPlan(t, 77, s.cfg, 6)
			if c1, c2 := plan1.Checksum(), plan2.Checksum(); c1 != c2 {
				t.Fatalf("same seed, different checksums: %016x vs %016x", c1, c2)
			}
			plan3, _ := formPlan(t, 78, s.cfg, 6)
			if plan1.Checksum() == plan3.Checksum() {
				t.Fatalf("different seeds collide on checksum %016x", plan1.Checksum())
			}
			if err := ecg.VerifyPlan(plan1, nw); err != nil {
				t.Fatalf("plan fails verification: %v", err)
			}
		})
	}
}

// TestChecksumLiteralGoldens pins literal fingerprints of the pipeline's
// random streams. The other goldens here compare runs against each other,
// which a stream change that is itself deterministic (a wrong rngCooked
// entry in simrand's source, an off-by-one register read, a different
// per-pair label) would pass; these fail on any such change. The
// K-medoids, SuggestK and Silhouette values also pin the clustering
// package's arithmetic, so a refactor of its data layout must reproduce
// them bit for bit.
func TestChecksumLiteralGoldens(t *testing.T) {
	t.Run("PlanSL", func(t *testing.T) {
		plan, _ := formPlan(t, 77, ecg.SL(8, 2), 6)
		if got, want := plan.Checksum(), uint64(0x4575deb943f298df); got != want {
			t.Fatalf("SL plan checksum %016x, want %016x", got, want)
		}
	})
	t.Run("PlanSDSL", func(t *testing.T) {
		plan, _ := formPlan(t, 77, ecg.SDSL(8, 2, 1.0), 6)
		if got, want := plan.Checksum(), uint64(0x6196dad506278b84); got != want {
			t.Fatalf("SDSL plan checksum %016x, want %016x", got, want)
		}
	})
	t.Run("PlanKMedoidsSL", func(t *testing.T) {
		cfg := ecg.SL(8, 2)
		cfg.Algorithm = ecg.AlgoKMedoids
		plan, _ := formPlan(t, 77, cfg, 6)
		if got, want := plan.Checksum(), uint64(0xe95bd35a30b11093); got != want {
			t.Fatalf("K-medoids SL plan checksum %016x, want %016x", got, want)
		}
	})
	t.Run("PlanKMedoidsSDSL", func(t *testing.T) {
		cfg := ecg.SDSL(8, 2, 1.0)
		cfg.Algorithm = ecg.AlgoKMedoids
		plan, _ := formPlan(t, 77, cfg, 6)
		if got, want := plan.Checksum(), uint64(0x39736a1a623f6ec2); got != want {
			t.Fatalf("K-medoids SDSL plan checksum %016x, want %016x", got, want)
		}
	})
	t.Run("SuggestK", func(t *testing.T) {
		plan, _ := formPlan(t, 77, ecg.SL(8, 2), 6)
		for _, workers := range []int{1, 4} {
			k, curve, err := ecg.SuggestK(plan.Points, 8, workers, ecg.NewRand(5))
			if err != nil {
				t.Fatal(err)
			}
			if want := 2; k != want {
				t.Fatalf("workers=%d: SuggestK = %d, want %d", workers, k, want)
			}
			want := "413f73bd076c60cc 412d1005f9e0b182 4125d738c24a4902 4124c8e3ca9fbf92 " +
				"411e16216163ea9e 40ff12ae116e0525 4100b4b713340195 40f4efee7b6ab9bb"
			if got := floatBits(curve); got != want {
				t.Fatalf("workers=%d: SuggestK curve bits %s, want %s", workers, got, want)
			}
		}
	})
	t.Run("Silhouette", func(t *testing.T) {
		plan, _ := formPlan(t, 77, ecg.SL(8, 2), 6)
		for _, workers := range []int{1, 4} {
			s, err := ecg.Silhouette(plan.Points, plan.Assignments, 6, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := floatBits([]float64{s}), "3fe195e3a59eaec2"; got != want {
				t.Fatalf("workers=%d: Silhouette = %v (bits %s), want bits %s", workers, s, got, want)
			}
		}
	})
	t.Run("Report", func(t *testing.T) {
		rep := runSim(t, 55)
		if got, want := rep.Checksum(), uint64(0x034c79236437a48b); got != want {
			t.Fatalf("report checksum %016x, want %016x", got, want)
		}
	})
	t.Run("ReportVariants", func(t *testing.T) {
		for _, c := range reportVariantGoldens {
			t.Run(c.name, func(t *testing.T) {
				if got := runSimVariant(t, 55, c.v).Checksum(); got != c.want {
					t.Fatalf("report checksum %016x, want %016x", got, c.want)
				}
			})
		}
	})
	t.Run("ProbeMeasure", func(t *testing.T) {
		_, prober, _ := buildStack(t, 60, 77)
		v, err := prober.Measure(ecg.CacheEndpoint(3), ecg.OriginEndpoint())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%016x", math.Float64bits(v)), "4058b93de0fe0905"; got != want {
			t.Fatalf("Measure(Ec3, Os) = %v (bits %s), want bits %s", v, got, want)
		}
	})
	t.Run("ProbeMeasureLossy", func(t *testing.T) {
		// 30% probe loss: the retry path draws a Bernoulli before each
		// sample, so this pins the stream interleaving and the overhead
		// counters as well as the value.
		nw, _, src := buildStack(t, 60, 77)
		cfg := ecg.DefaultProbeConfig()
		cfg.LossProb = 0.3
		prober, err := ecg.NewProber(nw, cfg, src.Split("lossy"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := prober.Measure(ecg.CacheEndpoint(41), ecg.CacheEndpoint(2))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%016x", math.Float64bits(v)), "40410cc60db8ed09"; got != want {
			t.Fatalf("lossy Measure(Ec41, Ec2) = %v (bits %s), want bits %s", v, got, want)
		}
		if got, want := prober.ProbesSent(), int64(11); got != want {
			t.Fatalf("lossy Measure sent %d probes, want %d", got, want)
		}
		if got, want := prober.Measurements(), int64(1); got != want {
			t.Fatalf("lossy Measure counted %d measurements, want %d", got, want)
		}
	})
}

// reportVariantGoldens pins the Report checksum of each simulator mode on
// the seed-55 pipeline, so a change to the cache store or the event loop
// that moves a victim, an event or a float addition fails on a literal
// rather than only against another run of the same code.
var reportVariantGoldens = []struct {
	name string
	v    simVariant
	want uint64
}{
	// The default 600 KB caches barely fill in this 40 s trace, so the two
	// replacement-policy variants shrink them to force steady eviction.
	{"SmallCache", simVariant{cfg: func(c *ecg.SimConfig) { c.CacheCapacityKB = 200 }}, 0x29572545e6566e8e},
	{"LRU", simVariant{cfg: func(c *ecg.SimConfig) {
		c.CacheCapacityKB = 200
		c.CachePolicy = ecg.PolicyLRU
	}}, 0x327ddbf0893f6d64},
	{"Beacons", simVariant{cfg: func(c *ecg.SimConfig) { c.BeaconsPerGroup = 2 }}, 0xae81071feb764f5c},
	{"PushInvalidation", simVariant{cfg: func(c *ecg.SimConfig) { c.PushInvalidation = true }}, 0xd8abbee0acb1c365},
	{"FailedCaches", simVariant{cfg: func(c *ecg.SimConfig) { c.FailedCaches = []ecg.CacheIndex{5, 23} }}, 0x1324237eea5c4f0c},
	{"Warmup", simVariant{cfg: func(c *ecg.SimConfig) { c.WarmupSec = 10 }}, 0xeb1bc8ea783816fc},
	// A fixed shuffle of the time-sorted log: the simulator must order the
	// requests itself rather than rely on the generator's order.
	{"ShuffledLog", simVariant{reqs: func(reqs []ecg.Request) []ecg.Request {
		out := append([]ecg.Request(nil), reqs...)
		ecg.NewRand(9).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}}, 0x034c79236437a48b},
}

// floatBits renders each value's IEEE-754 bits in hex, space-separated,
// so a golden pins the exact floats rather than a rounded print.
func floatBits(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return s
}

func TestPlanChecksumProbeParallelismInvariant(t *testing.T) {
	for _, par := range []int{1, 8} {
		cfg := ecg.SDSL(8, 2, 1.0)
		cfg.ProbeParallelism = 1
		plan1, _ := formPlan(t, 91, cfg, 5)
		cfg.ProbeParallelism = par
		plan2, _ := formPlan(t, 91, cfg, 5)
		if c1, c2 := plan1.Checksum(), plan2.Checksum(); c1 != c2 {
			t.Fatalf("ProbeParallelism %d changed the checksum: %016x vs %016x", par, c1, c2)
		}
	}
}

func TestPlanChecksumClusterParallelismInvariant(t *testing.T) {
	for _, par := range []int{1, 8} {
		cfg := ecg.SDSL(8, 2, 1.0)
		cfg.Cluster.Parallelism = 1
		plan1, _ := formPlan(t, 91, cfg, 5)
		cfg.Cluster.Parallelism = par
		plan2, _ := formPlan(t, 91, cfg, 5)
		if c1, c2 := plan1.Checksum(), plan2.Checksum(); c1 != c2 {
			t.Fatalf("Cluster.Parallelism %d changed the checksum: %016x vs %016x", par, c1, c2)
		}
	}
}

// TestPlanChecksumGNPParallelismInvariant pins the GNP host embedding
// alone: for the Euclidean scheme, ProbeParallelism bounds both probing
// and the per-cache EmbedHost fan-out, and neither may move the plan.
func TestPlanChecksumGNPParallelismInvariant(t *testing.T) {
	for _, par := range []int{1, 8} {
		cfg := ecg.EuclideanScheme(8, 2, 5)
		cfg.ProbeParallelism = 1
		plan1, _ := formPlan(t, 91, cfg, 5)
		cfg.ProbeParallelism = par
		plan2, _ := formPlan(t, 91, cfg, 5)
		if c1, c2 := plan1.Checksum(), plan2.Checksum(); c1 != c2 {
			t.Fatalf("ProbeParallelism %d changed the Euclidean checksum: %016x vs %016x", par, c1, c2)
		}
	}
}

// TestPlanChecksumPipelineParallelismInvariant pins WithParallelism,
// the one bound for every per-cache formation stage: probing for every
// scheme, and the host embedding for the GNP and Vivaldi representations.
func TestPlanChecksumPipelineParallelismInvariant(t *testing.T) {
	schemes := []struct {
		name string
		cfg  ecg.SchemeConfig
	}{
		{"SDSL", ecg.SDSL(8, 2, 1.0)},
		{"Euclidean", ecg.EuclideanScheme(8, 2, 5)},
		{"Vivaldi", core.VivaldiScheme(8, 2, 5)},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			plan1, _ := formPlan(t, 91, ecg.WithParallelism(s.cfg, 1), 5)
			plan2, _ := formPlan(t, 91, ecg.WithParallelism(s.cfg, 8), 5)
			if c1, c2 := plan1.Checksum(), plan2.Checksum(); c1 != c2 {
				t.Fatalf("WithParallelism(8) changed the checksum: %016x vs %016x", c1, c2)
			}
		})
	}
}

// TestPlanChecksumPruneInvariant pins the bounds-pruning contract at the
// whole-pipeline level: the pruned K-means reassignment (the default
// grouped-bounds sweep) must yield a Plan checksum bit-identical to the
// serial exhaustive sweep's, for each scheme and at Parallelism 1 and 8.
// A single differently-resolved distance tie or a skipped reassignment
// would change the assignment vector and surface here.
func TestPlanChecksumPruneInvariant(t *testing.T) {
	schemes := []struct {
		name string
		cfg  ecg.SchemeConfig
	}{
		{"SL", ecg.SL(8, 2)},
		{"SDSL", ecg.SDSL(8, 2, 1.0)},
		{"Euclidean", ecg.EuclideanScheme(8, 2, 5)},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			ref := s.cfg
			ref.Cluster.Prune = cluster.PruneNone
			exhaustive, _ := formPlan(t, 77, ref, 6)
			want := exhaustive.Checksum()
			for _, mode := range []cluster.PruneMode{cluster.PruneNone, cluster.PruneAuto} {
				for _, workers := range []int{1, 8} {
					cfg := s.cfg
					cfg.Cluster.Prune = mode
					cfg.Cluster.Parallelism = workers
					plan, _ := formPlan(t, 77, cfg, 6)
					if got := plan.Checksum(); got != want {
						t.Fatalf("prune=%v workers=%d: checksum %016x, want exhaustive %016x",
							mode, workers, got, want)
					}
				}
			}
		})
	}
}

func TestReportChecksumGolden(t *testing.T) {
	r1 := runSim(t, 55)
	r2 := runSim(t, 55)
	if c1, c2 := r1.Checksum(), r2.Checksum(); c1 != c2 {
		t.Fatalf("same seed, different report checksums: %016x vs %016x", c1, c2)
	}
	r3 := runSim(t, 56)
	if r1.Checksum() == r3.Checksum() {
		t.Fatalf("different seeds collide on report checksum %016x", r1.Checksum())
	}
}

// runSim runs the full pipeline plus a simulation for one seed, with
// verification enabled end to end.
func runSim(t *testing.T, seed int64) *ecg.Report {
	t.Helper()
	return runSimVariant(t, seed, simVariant{})
}

// simVariant adjusts the simulation runSimVariant performs: cfg edits the
// simulator config and reqs rewrites the generated request log. Nil fields
// leave the default in place.
type simVariant struct {
	cfg  func(*ecg.SimConfig)
	reqs func([]ecg.Request) []ecg.Request
}

// runSimVariant is runSim with the config and request log adjusted by v.
func runSimVariant(t *testing.T, seed int64, v simVariant) *ecg.Report {
	t.Helper()
	plan, nw := formPlan(t, seed, ecg.SDSL(8, 2, 1.0), 6)
	src := ecg.NewRand(seed + 1000)
	catalog, err := ecg.NewCatalog(ecg.DefaultCatalogParams(), src.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 40, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := ecg.GenerateRequests(catalog, 60, tp, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := ecg.GenerateUpdates(catalog, 40, src.Split("ups"))
	if err != nil {
		t.Fatal(err)
	}
	if v.reqs != nil {
		reqs = v.reqs(reqs)
	}
	simCfg := ecg.DefaultSimConfig()
	simCfg.Verify = true
	if v.cfg != nil {
		v.cfg(&simCfg)
	}
	sim, err := ecg.NewSimulator(nw, plan.Groups(), catalog, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	if err := ecg.VerifyReport(rep, reqs, ups); err != nil {
		t.Fatalf("report fails verification: %v", err)
	}
	return rep
}
