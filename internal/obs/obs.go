// Package obs is the repo's zero-dependency observability layer: a
// metrics registry (counters, gauges, fixed-bucket log-scale latency
// histograms), a bounded structured trace sink, and an HTTP exposition
// surface (Prometheus text at /metrics, JSON snapshots at /debug/vars,
// net/http/pprof, and a JSONL trace dump at /trace).
//
// The layer is strictly a side channel: enabling or disabling it must
// never change a Plan or Report checksum. Three rules make that hold:
//
//  1. Metric writes are atomic increments into pre-registered cells and
//     trace emissions are value copies into a pre-allocated ring — no
//     code path reads a metric back into simulation state.
//  2. The record path is allocation-free and every accessor is safe on a
//     nil receiver, so instrumented code holds possibly-nil handles and
//     pays only a nil check when observability is off.
//  3. Simulation packages (netsim and friends, enforced by ecglint's
//     detclock rule) never read the wall clock: their events carry
//     virtual time injected by the caller (Event.TimeSec), while
//     non-simulation layers use StartSpan/EmitNow, which stamp wall
//     time inside this package. Wall-clock readings feed diagnostics
//     only, never checksums.
package obs

import (
	"time"
)

// DefaultTraceCapacity is the trace ring size used by New.
const DefaultTraceCapacity = 4096

// Obs bundles a metrics registry and a trace sink. The zero value is not
// useful; construct with New. A nil *Obs is the disabled state: every
// method no-ops and every handle accessor returns a nil (no-op) handle.
type Obs struct {
	reg   *Registry
	trace *TraceSink
}

// New returns an enabled observability bundle with an empty registry and
// a trace ring of DefaultTraceCapacity events.
func New() *Obs {
	return &Obs{reg: NewRegistry(), trace: NewTraceSink(DefaultTraceCapacity)}
}

// Registry returns the metrics registry (nil when o is nil).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Trace returns the trace sink (nil when o is nil).
func (o *Obs) Trace() *TraceSink {
	if o == nil {
		return nil
	}
	return o.trace
}

// Counter returns the named counter, registering it on first use. A nil
// receiver yields a nil counter whose methods no-op.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge returns the named gauge, registering it on first use. A nil
// receiver yields a nil gauge whose methods no-op.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// Histogram returns the named histogram, registering it on first use. A
// nil receiver yields a nil histogram whose methods no-op.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name)
}

// Emit records one trace event. The caller fills Event.TimeSec from its
// own clock — simulation code passes virtual time, keeping the wall clock
// out of simulation packages entirely.
func (o *Obs) Emit(e Event) {
	if o == nil {
		return
	}
	o.trace.Emit(e)
}

// EmitNow records one trace event stamped with the sink-relative wall
// time. For non-simulation layers (protocol rounds, CLI milestones) that
// have no virtual clock; never call from simulation code with results
// that feed checksums.
func (o *Obs) EmitNow(kind EventKind, name string, value int64) {
	if o == nil {
		return
	}
	e := Event{Kind: kind, Name: name, TimeSec: o.trace.sinceStart(), Value: value, Cache: -1}
	o.trace.Emit(e)
}

// noopSpan is the shared disabled-span closer, so StartSpan on a nil
// receiver stays allocation-free.
var noopSpan = func() {}

// StartSpan emits a KindStageBegin event and returns the closer that
// emits the matching KindStageEnd with the span's wall-clock duration and
// records that duration in the histogram stage_<name>_ms ("probe-features"
// becomes stage_probe_features_ms). It is the repo's one stage timer: the
// histogram's count and sum are the stage's invocations and total time,
// summed across every instance sharing o. Simulation code may bracket a
// whole run with a span, but its events carry virtual time via Emit (the
// detclock lint rule keeps the wall clock out of those packages).
func (o *Obs) StartSpan(name string) func() {
	if o == nil {
		return noopSpan
	}
	h := o.reg.Histogram("stage_" + name + "_ms")
	begin := time.Now()
	o.trace.Emit(Event{Kind: KindStageBegin, Name: name, TimeSec: o.trace.sinceStart(), Cache: -1})
	return func() {
		ms := float64(time.Since(begin)) / float64(time.Millisecond)
		h.Record(ms)
		o.trace.Emit(Event{
			Kind:    KindStageEnd,
			Name:    name,
			TimeSec: o.trace.sinceStart(),
			DurMS:   ms,
			Cache:   -1,
		})
	}
}
