package probe

import (
	"sync"
	"testing"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// TestMeasurerMatchesProberMeasure pins the Measurer contract: one
// Measurer reused across many pairs (its scratch source reseeded after
// partial use each time) must reproduce the one-shot Prober.Measure, which
// runs on a fresh Measurer, bit-for-bit — same per-pair stream, same
// canonical pair ordering, same self-measurement shortcut — across
// origin/cache pairs in both argument orders and with loss/retries
// enabled.
func TestMeasurerMatchesProberMeasure(t *testing.T) {
	nw := testNetwork(t, 30)
	cfg := DefaultConfig()
	cfg.LossProb = 0.2 // exercise the retry path too
	p, err := NewProber(nw, cfg, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMeasurer()
	endpoints := []Endpoint{
		Origin(), Cache(0), Cache(1), Cache(2), Cache(9), Cache(10), Cache(25),
	}
	for _, a := range endpoints {
		for _, b := range endpoints {
			want, errWant := p.Measure(a, b)
			got, errGot := m.Measure(a, b)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%v<->%v: error mismatch: %v vs %v", a, b, errWant, errGot)
			}
			if got != want {
				t.Fatalf("%v<->%v: Measurer %v != Prober %v", a, b, got, want)
			}
		}
	}
}

// TestMeasurerMeasureToIntoMatchesMeasureTo pins the batch path and the
// serial Prober.MeasureToInto fast path against the parallel fan-out.
func TestMeasurerMeasureToIntoMatchesMeasureTo(t *testing.T) {
	nw := testNetwork(t, 30)
	p, err := NewProber(nw, DefaultConfig(), simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	targets := []Endpoint{Origin(), Cache(3), Cache(14), Cache(7), Cache(7)}
	want, err := p.MeasureTo(Cache(1), targets)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(targets))
	if err := p.NewMeasurer().MeasureToInto(Cache(1), targets, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("target %d: Measurer %v != MeasureTo %v", i, got[i], want[i])
		}
	}
	serialCfg := DefaultConfig()
	serialCfg.Parallelism = 1
	ps, err := NewProber(nw, serialCfg, simrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(targets))
	if err := ps.MeasureToInto(Cache(1), targets, serial); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if serial[i] != want[i] {
			t.Fatalf("target %d: serial MeasureToInto %v != parallel %v", i, serial[i], want[i])
		}
	}
	if err := p.NewMeasurer().MeasureToInto(Cache(1), targets, make([]float64, 2)); err == nil {
		t.Fatal("MeasureToInto accepted a short out slice")
	}
}

// TestMeasurerAllocationFree pins the whole point of Measurer: repeated
// measurements must not allocate in steady state, so probing N caches
// against L landmarks costs O(1) allocations, not O(N·L).
func TestMeasurerAllocationFree(t *testing.T) {
	nw := testNetwork(t, 30)
	p, err := NewProber(nw, DefaultConfig(), simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMeasurer()
	targets := []Endpoint{Origin(), Cache(3), Cache(14), Cache(29)}
	out := make([]float64, len(targets))
	// Warm once so the scratch buffers reach steady-state capacity.
	if err := m.MeasureToInto(Cache(12), targets, out); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := m.MeasureToInto(Cache(12), targets, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Measurer.MeasureToInto allocates %v per row, want 0", a)
	}
}

// TestBatchCountersMatchPerPairMeasure pins the batched overhead counters:
// Measurers tally probes and measurements locally and flush once per
// call, so after every batch call (MeasureMatrix, MeasureTo at either
// parallelism, Measurer.MeasureToInto) the Prober's counters must equal
// the sum of one-shot Prober.Measure calls over the same pairs — retries
// included — and concurrent batch calls on one Prober must add up.
func TestBatchCountersMatchPerPairMeasure(t *testing.T) {
	nw := testNetwork(t, 20)
	endpoints := []Endpoint{Origin()}
	for i := 0; i < 20; i++ {
		endpoints = append(endpoints, Cache(topology.CacheIndex(i)))
	}
	for _, parallelism := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.LossProb = 0.3
		cfg.Parallelism = parallelism
		p, err := NewProber(nw, cfg, simrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		// counters returns the (probes, measurements) one call adds.
		counters := func(call func()) (int64, int64) {
			p.ResetCounters()
			call()
			return p.ProbesSent(), p.Measurements()
		}
		var wantProbes, wantMeas int64
		for i := range endpoints {
			for j := i + 1; j < len(endpoints); j++ {
				probes, meas := counters(func() {
					if _, err := p.Measure(endpoints[i], endpoints[j]); err != nil {
						t.Fatal(err)
					}
				})
				wantProbes += probes
				wantMeas += meas
			}
		}
		probes, meas := counters(func() {
			if _, err := p.MeasureMatrix(endpoints); err != nil {
				t.Fatal(err)
			}
		})
		if probes != wantProbes || meas != wantMeas {
			t.Fatalf("parallelism %d: MeasureMatrix counted %d probes / %d measurements, per-pair Measure %d / %d",
				parallelism, probes, meas, wantProbes, wantMeas)
		}

		// One row: the origin against every endpoint, itself included.
		var rowProbes, rowMeas int64
		for _, e := range endpoints {
			probes, meas := counters(func() {
				if _, err := p.Measure(Origin(), e); err != nil {
					t.Fatal(err)
				}
			})
			rowProbes += probes
			rowMeas += meas
		}
		out := make([]float64, len(endpoints))
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"MeasureTo", func() error {
				_, err := p.MeasureTo(Origin(), endpoints)
				return err
			}},
			{"Measurer.MeasureToInto", func() error {
				return p.NewMeasurer().MeasureToInto(Origin(), endpoints, out)
			}},
		} {
			probes, meas := counters(func() {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			})
			if probes != rowProbes || meas != rowMeas {
				t.Fatalf("parallelism %d: %s counted %d probes / %d measurements, per-pair Measure %d / %d",
					parallelism, c.name, probes, meas, rowProbes, rowMeas)
			}
		}

		const callers = 4
		probes, meas = counters(func() {
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := p.MeasureMatrix(endpoints); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
		if probes != callers*wantProbes || meas != callers*wantMeas {
			t.Fatalf("parallelism %d: %d concurrent MeasureMatrix calls counted %d probes / %d measurements, want %d / %d",
				parallelism, callers, probes, meas, callers*wantProbes, callers*wantMeas)
		}
	}
}
