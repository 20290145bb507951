package core_test

import (
	"testing"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/serve"
	"edgecachegroups/internal/simrand"
)

// TestEngineReformMatchesBatchFormation is the differential test for the
// one formation path: after every cache reports drifted RTTs, the daemon's
// default full re-formation publishes exactly the plan that the shared
// clustering step of FormGroups builds from the same matrix and random
// stream — for SL and SDSL boot plans, at clustering parallelism 1 and 4.
func TestEngineReformMatchesBatchFormation(t *testing.T) {
	const engineSeed = 7
	nw, p := core.TestNetwork(t, 60, 300)
	for _, cfg := range []core.Config{core.SL(8, 3), core.SDSL(8, 3, 1)} {
		t.Run(cfg.Name(), func(t *testing.T) {
			gf, err := core.NewCoordinator(nw, p, cfg, simrand.New(301))
			if err != nil {
				t.Fatal(err)
			}
			boot, err := gf.FormGroups(5)
			if err != nil {
				t.Fatal(err)
			}

			// Every cache drifts: its RTTs scale by a factor in [1.5, 3).
			n, dim := boot.NumCaches(), len(boot.Landmarks)
			points := cluster.NewMatrix(n, dim)
			batch := make([]serve.CacheStat, n)
			drift := simrand.New(302)
			for i, f := range boot.Features {
				scale := 1.5 + 1.5*drift.Float64()
				row := points.Row(i)
				for j, x := range f {
					row[j] = x * scale
				}
				batch[i] = serve.CacheStat{Cache: i, RTTMS: append([]float64(nil), row...)}
			}

			e, err := serve.NewEngine(serve.Config{
				Plan: boot,
				Rand: simrand.New(engineSeed),
				Maint: core.MaintainerConfig{
					Interval:          time.Hour,
					SampleFraction:    1,
					DriftThreshold:    0.2,
					ReclusterFraction: 0.5,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			ev, err := e.Tick()
			if err != nil || !ev.Reclustered {
				t.Fatalf("Tick: %+v, %v; want a full re-formation", ev, err)
			}
			got := e.Epoch()

			origin := -1
			for j, lm := range boot.Landmarks {
				if lm.IsOrigin() {
					origin = j
				}
			}
			serverDist := make([]float64, n)
			for i := range serverDist {
				serverDist[i] = points.Row(i)[origin]
			}
			for _, par := range []int{1, 4} {
				opts := cluster.DefaultOptions()
				opts.Parallelism = par
				base := core.Plan{
					Scheme:     cfg.Name(),
					Landmarks:  boot.Landmarks,
					ServerDist: serverDist,
					Algorithm:  cfg.Algorithm,
					Theta:      cfg.Theta,
				}
				want, err := core.FormPlan(base, boot.NumGroups(), points, points, opts, simrand.New(engineSeed).Split("recluster"))
				if err != nil {
					t.Fatal(err)
				}
				if got.Checksum != want.Checksum() {
					t.Fatalf("parallelism %d: daemon re-formed epoch %016x, batch formation step %016x",
						par, got.Checksum, want.Checksum())
				}
			}
		})
	}
}
