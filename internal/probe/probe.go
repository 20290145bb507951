// Package probe simulates the RTT measurement layer of the edge cache
// network. In the paper, caches and the origin server determine their
// relative positions by probing Internet landmarks multiple times and
// averaging the observed round-trip times. Here the "network" is a
// topology.Network, and a probe observes the true shortest-path RTT
// perturbed by configurable measurement noise, with optional probe loss and
// retries.
//
// All randomness is derived from per-pair split sources, so measurement
// results are a pure function of (seed, endpoint pair) regardless of the
// concurrency schedule.
package probe

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// Endpoint addresses a probe-capable node: the origin server or one of the
// edge caches.
type Endpoint struct {
	origin bool
	cache  topology.CacheIndex
}

// Origin returns the endpoint for the origin server.
func Origin() Endpoint { return Endpoint{origin: true} }

// Cache returns the endpoint for edge cache i.
func Cache(i topology.CacheIndex) Endpoint { return Endpoint{cache: i} }

// IsOrigin reports whether e addresses the origin server.
func (e Endpoint) IsOrigin() bool { return e.origin }

// CacheIndex returns the cache index; valid only when !IsOrigin().
func (e Endpoint) CacheIndex() topology.CacheIndex { return e.cache }

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e.origin {
		return "Os"
	}
	return fmt.Sprintf("Ec%d", int(e.cache))
}

// Config controls the measurement model.
type Config struct {
	// Samples is the number of probes averaged per measurement. Must be >= 1.
	Samples int
	// NoiseFrac is the standard deviation of multiplicative measurement
	// noise as a fraction of the true RTT (e.g. 0.1 = 10%).
	NoiseFrac float64
	// FloorMS is an additive measurement floor in milliseconds; each sample
	// gains |N(0, FloorMS)| to model queueing and clock granularity.
	FloorMS float64
	// LossProb is the probability that a single probe is lost.
	LossProb float64
	// MaxRetries is the number of retries for a lost probe.
	MaxRetries int
	// Parallelism bounds the worker pool for batch probing; 0 means a
	// sensible default.
	Parallelism int
}

// DefaultConfig returns the measurement model used in the experiments:
// 5 samples, 8% multiplicative noise, 0.3ms floor, no loss.
func DefaultConfig() Config {
	return Config{
		Samples:     5,
		NoiseFrac:   0.08,
		FloorMS:     0.3,
		LossProb:    0,
		MaxRetries:  3,
		Parallelism: 8,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.Samples < 1:
		return fmt.Errorf("probe: Samples must be >= 1, got %d", c.Samples)
	case c.NoiseFrac < 0 || math.IsNaN(c.NoiseFrac):
		return fmt.Errorf("probe: NoiseFrac must be >= 0, got %v", c.NoiseFrac)
	case c.FloorMS < 0:
		return fmt.Errorf("probe: FloorMS must be >= 0, got %v", c.FloorMS)
	case c.LossProb < 0 || c.LossProb >= 1:
		return fmt.Errorf("probe: LossProb must be in [0,1), got %v", c.LossProb)
	case c.MaxRetries < 0:
		return fmt.Errorf("probe: MaxRetries must be >= 0, got %v", c.MaxRetries)
	case c.Parallelism < 0:
		return fmt.Errorf("probe: Parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

// ErrProbeFailed is returned when every sample of a measurement was lost
// despite retries.
var ErrProbeFailed = errors.New("probe: all samples lost")

// Prober measures RTTs over a placed network. It is safe for concurrent
// use.
type Prober struct {
	nw   *topology.Network
	cfg  Config
	seed *simrand.Source

	// measurement-overhead accounting (the paper repeatedly weighs scheme
	// accuracy against probing overhead; these counters quantify it).
	probesSent   atomic.Int64
	measurements atomic.Int64
}

// NewProber builds a Prober over nw. The source seeds the per-pair
// measurement streams.
func NewProber(nw *topology.Network, cfg Config, src *simrand.Source) (*Prober, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nw == nil {
		return nil, errors.New("probe: nil network")
	}
	return &Prober{nw: nw, cfg: cfg, seed: src}, nil
}

// Config returns the prober's configuration.
func (p *Prober) Config() Config { return p.cfg }

// TrueRTT returns the noiseless RTT between two endpoints.
func (p *Prober) TrueRTT(a, b Endpoint) float64 {
	switch {
	case a.origin && b.origin:
		return 0
	case a.origin:
		return p.nw.DistToOrigin(b.cache)
	case b.origin:
		return p.nw.DistToOrigin(a.cache)
	default:
		return p.nw.Dist(a.cache, b.cache)
	}
}

// Measure performs a full measurement between a and b: Samples probes
// (each retried on loss), averaged. The result is deterministic for a
// given (seed, a, b) and symmetric in (a, b). Measuring an endpoint
// against itself is exactly 0 — no probe is sent, matching the zero
// diagonal of MeasureMatrix (a cache that is itself a landmark must not
// see a spurious noise-floor self-distance in its feature vector).
//
// Measure is a one-shot convenience over a fresh Measurer; callers that
// measure many pairs should hold a Measurer instead.
func (p *Prober) Measure(a, b Endpoint) (float64, error) {
	return p.NewMeasurer().Measure(a, b)
}

// MeasureTo measures from one endpoint to each target, fanning the probes
// out across a bounded worker pool. Results align with targets.
func (p *Prober) MeasureTo(from Endpoint, targets []Endpoint) ([]float64, error) {
	out := make([]float64, len(targets))
	if err := p.MeasureToInto(from, targets, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MeasureToInto is MeasureTo writing into a caller-supplied slice (one row
// of a flat feature matrix, typically), fanned out over one Measurer per
// worker: O(workers) allocations per call regardless of the target count.
// Callers that probe many rows (the feature-building stage fans out per
// cache, making per-target fan-out here redundant) should hold their own
// Measurer per worker and pay O(workers) total. out must have
// len(targets) elements.
func (p *Prober) MeasureToInto(from Endpoint, targets []Endpoint, out []float64) error {
	if len(out) != len(targets) {
		return fmt.Errorf("probe: out has %d slots for %d targets", len(out), len(targets))
	}
	errs := make([]error, len(targets))
	p.forEachMeasurer(len(targets), func(m *Measurer, i int) {
		out[i], errs[i] = m.measure(from, targets[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("target %d: %w", i, err)
		}
	}
	return nil
}

// Measurer is a reusable single-goroutine measurement context and the one
// implementation of a measurement: every Prober method measures through
// one. It reuses a scratch random source and label buffers, so repeated
// measurements allocate nothing in steady state. The flat-matrix feature
// build holds one Measurer per worker, making the whole N-cache probing
// stage O(workers) allocations instead of O(N·L).
//
// A Measurer must not be shared across goroutines; create one per worker
// with NewMeasurer. The overhead counters aggregate on the parent Prober:
// the Measurer tallies them locally and flushes once per Measure or
// MeasureToInto call, so the parent's counters are exact after each call
// returns.
type Measurer struct {
	p   *Prober
	src *simrand.Source // scratch child source, reseeded per pair
	ka  []byte          // scratch endpoint keys and pair label
	kb  []byte
	lbl []byte

	probes, measured int64 // counter increments not yet flushed to p
}

// NewMeasurer returns a fresh measurement context bound to p.
func (p *Prober) NewMeasurer() *Measurer {
	return &Measurer{
		p:   p,
		src: simrand.New(0),
		ka:  make([]byte, 0, 16),
		kb:  make([]byte, 0, 16),
		lbl: make([]byte, 0, 40),
	}
}

// appendKey appends e's split-source key ("os" for the origin, "ec<i>"
// for cache i) to dst without allocating once dst has capacity.
func appendKey(dst []byte, e Endpoint) []byte {
	if e.origin {
		return append(dst, "os"...)
	}
	dst = append(dst, "ec"...)
	return strconv.AppendInt(dst, int64(e.cache), 10)
}

// Measure performs one measurement with Prober.Measure's semantics through
// the reusable scratch, with zero steady-state allocations.
func (m *Measurer) Measure(a, b Endpoint) (float64, error) {
	defer m.flush()
	return m.measure(a, b)
}

// flush adds the locally tallied overhead counters to the parent Prober.
func (m *Measurer) flush() {
	if m.probes != 0 {
		m.p.probesSent.Add(m.probes)
		m.probes = 0
	}
	if m.measured != 0 {
		m.p.measurements.Add(m.measured)
		m.measured = 0
	}
}

// measure performs one measurement, tallying the overhead counters
// locally; callers flush them.
func (m *Measurer) measure(a, b Endpoint) (float64, error) {
	p := m.p
	// Canonical pair order so Measure(a,b) == Measure(b,a): the pair
	// label orders the two endpoint keys byte-wise.
	m.ka = appendKey(m.ka[:0], a)
	m.kb = appendKey(m.kb[:0], b)
	m.measured++
	if bytes.Equal(m.ka, m.kb) {
		return 0, nil
	}
	ka, kb := m.ka, m.kb
	if bytes.Compare(ka, kb) > 0 {
		ka, kb = kb, ka
	}
	m.lbl = append(m.lbl[:0], "pair/"...)
	m.lbl = append(m.lbl, ka...)
	m.lbl = append(m.lbl, '/')
	m.lbl = append(m.lbl, kb...)
	p.seed.SplitInto(m.src, m.lbl)
	trueRTT := p.TrueRTT(a, b)

	var sum float64
	var got int
	for s := 0; s < p.cfg.Samples; s++ {
		v, ok := m.sampleOnce(trueRTT)
		if !ok {
			continue
		}
		sum += v
		got++
	}
	if got == 0 {
		return 0, fmt.Errorf("measure %v<->%v: %w", a, b, ErrProbeFailed)
	}
	return sum / float64(got), nil
}

// sampleOnce draws one probe sample from the current pair stream,
// retrying on loss. The boolean result is false when the sample (and all
// its retries) were lost.
func (m *Measurer) sampleOnce(trueRTT float64) (float64, bool) {
	cfg, src := &m.p.cfg, m.src
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		m.probes++
		if cfg.LossProb > 0 && src.Float64() < cfg.LossProb {
			continue
		}
		v := trueRTT * (1 + src.Normal(0, cfg.NoiseFrac))
		if cfg.FloorMS > 0 {
			v += math.Abs(src.Normal(0, cfg.FloorMS))
		}
		if v < 0 {
			v = 0
		}
		return v, true
	}
	return 0, false
}

// MeasureToInto measures from one endpoint to each target serially into
// out, with zero steady-state allocations. out must have len(targets)
// elements.
func (m *Measurer) MeasureToInto(from Endpoint, targets []Endpoint, out []float64) error {
	if len(out) != len(targets) {
		return fmt.Errorf("probe: out has %d slots for %d targets", len(out), len(targets))
	}
	defer m.flush()
	for i := range targets {
		v, err := m.measure(from, targets[i])
		if err != nil {
			return fmt.Errorf("target %d: %w", i, err)
		}
		out[i] = v
	}
	return nil
}

// MeasureMatrix measures the full symmetric matrix among endpoints.
// result[i][j] is the measured RTT between endpoints[i] and endpoints[j];
// the diagonal is zero. The rows share one backing array and the pairs are
// measured through one Measurer per worker, so the call costs O(workers)
// allocations however many pairs it measures.
func (p *Prober) MeasureMatrix(endpoints []Endpoint) ([][]float64, error) {
	n := len(endpoints)
	out := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	errs := make([]error, len(pairs))
	p.forEachMeasurer(len(pairs), func(m *Measurer, k int) {
		pr := pairs[k]
		v, err := m.measure(endpoints[pr.i], endpoints[pr.j])
		if err != nil {
			errs[k] = err
			return
		}
		out[pr.i][pr.j] = v
		out[pr.j][pr.i] = v
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pair (%d,%d): %w", pairs[k].i, pairs[k].j, err)
		}
	}
	return out, nil
}

// ProbesSent returns the total number of individual probe packets issued
// (including retries) — the measurement overhead the landmark parameters
// L and M trade off against accuracy.
func (p *Prober) ProbesSent() int64 { return p.probesSent.Load() }

// Measurements returns the number of completed Measure calls.
func (p *Prober) Measurements() int64 { return p.measurements.Load() }

// ResetCounters zeroes the overhead counters.
func (p *Prober) ResetCounters() {
	p.probesSent.Store(0)
	p.measurements.Store(0)
}

// forEachMeasurer runs fn(m, 0..n-1) over the shared worker pool, handing
// each worker its own Measurer, and flushes the Measurers' counters once
// all items are done. Results are schedule-independent because every
// measurement draws from its own per-pair split source.
func (p *Prober) forEachMeasurer(n int, fn func(m *Measurer, i int)) {
	meas := make([]*Measurer, par.Workers(n, p.cfg.Parallelism))
	for w := range meas {
		meas[w] = p.NewMeasurer()
	}
	par.ForEachWorker(n, p.cfg.Parallelism, func(w, i int) { fn(meas[w], i) })
	for _, m := range meas {
		m.flush()
	}
}
