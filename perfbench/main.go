// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed measuring time, checks that the program's
// outputs are correct, and prints one JSON result line. With --trace 0 the
// line holds the end-to-end metrics; with --trace 1 it holds the per-layer
// breakdown from a run that replays the same workload through the layer
// functions with spans recorded around each call.
//
// Workloads (METRICS.md gives the reasons and the metric map):
//
//	form-sdsl     SDSL group formation over 2000 caches, K=80
//	simulate      cooperative-cache simulation of a 600 s trace, 500 caches
//	daemon-drift  open-loop GET /assign beside drift ingest and maintenance
//	              ticks on an in-process serving daemon, 2000 caches, K=200
//
// Usage, from the repository root:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --workload daemon-drift --sweep --seed N --seconds S
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd lists the gated metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"latency_ms", "ms"},
	{"cpu_ms", "ms"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a --trace 1 run. A layer a workload never
// runs reports 0.
var perLayer = []metricDef{
	{"topology.generate_ms", "ms"},
	{"topology.network_ms", "ms"},
	{"landmark.select_ms", "ms"},
	{"landmark.probes", "count"},
	{"probe.features_ms", "ms"},
	{"probe.measurements", "count"},
	{"probe.alloc_mb", "MB"},
	{"cluster.kmeans_ms", "ms"},
	{"cluster.iterations", "count"},
	{"cluster.distevals", "count"},
	{"cluster.recluster_ms", "ms"},
	{"verify.plan_ms", "ms"},
	{"verify.report_ms", "ms"},
	{"core.form_alloc_mb", "MB"},
	{"workload.generate_ms", "ms"},
	{"netsim.new_ms", "ms"},
	{"netsim.run_ms", "ms"},
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.alloc_mb", "MB"},
	{"cache.local_hits", "count"},
	{"cache.group_hits", "count"},
	{"cache.origin_fetches", "count"},
	{"serve.assign_us", "us"},
	{"serve.http_assign_ms", "ms"},
	{"serve.ingest_us", "us"},
	{"serve.ingest_ms", "ms"},
	{"serve.tick_ms", "ms"},
	{"serve.recluster_ms", "ms"},
	{"serve.reassigned", "count"},
	{"serve.reclusters", "count"},
	{"serve.epochs", "count"},
	{"serve.assign_p99_ms", "ms"},
	{"serve.assign_p999_ms", "ms"},
	{"proc.gen_lag_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.layer_gap_pct", "%"},
}

// setupReps is how many times each run builds its workload state; setup_s
// is the median, so slow builds on a shared host do not move it.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sweep    bool
}

// runner carries one run's options and collects its metrics, operation
// counts and correctness gates.
type runner struct {
	opts      options
	out       io.Writer
	tr        *tracer // nil unless --trace 1
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// check records a failed correctness gate when ok is false.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// measured returns the length of the measured phase, and the length of each
// half when a traced run splits it into an untraced and a traced half.
func (r *runner) measured() (total, half time.Duration) {
	total = time.Duration(r.opts.seconds * float64(time.Second))
	return total, total / 2
}

var workloads = map[string]func(*runner) error{
	"form-sdsl":    runFormSDSL,
	"simulate":     runSimulate,
	"daemon-drift": runDaemonDrift,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		opts  options
		trace int
	)
	fs.StringVar(&opts.workload, "workload", "", "workload name: form-sdsl, simulate or daemon-drift")
	fs.Int64Var(&opts.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&opts.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload through the layer functions and reports per-layer metrics")
	fs.BoolVar(&opts.sweep, "sweep", false, "daemon-drift only: step the /assign rate and report the highest rate that meets the latency limit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opts.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %v", opts.seconds)
	}
	opts.trace = trace == 1
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		return err
	}
	fn, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s loadavg=%q workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), loadAvg(), opts.workload, opts.seed, opts.seconds, trace)
	if opts.sweep {
		if opts.workload != "daemon-drift" {
			return errors.New("--sweep applies to daemon-drift only")
		}
		return sweepDaemon(opts, stdout)
	}

	r := &runner{opts: opts, out: stdout, e2e: map[string]float64{}, layer: map[string]float64{}}
	if opts.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "# check failed:", p)
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if opts.trace {
		if rss, err := peakRSSMB(); err == nil {
			r.layer["proc.peak_rss_mb"] = rss
		}
		for _, d := range perLayer {
			// NaN: the layer had no samples in this run; Inf: a quantile
			// fell on failed operations, which "failed" counts.
			v := r.layer[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", opts.workload, opts.seed)
		if err := r.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	} else {
		for _, d := range endToEnd {
			v, ok := r.e2e[d.Name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("workload %s produced no usable %s (%v)", opts.workload, d.Name, v)
			}
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkBenchmarkFile fails unless the metric lists in the benchmark's
// description match the ones this program reports, name for name and unit
// for unit.
func checkBenchmarkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read benchmark description: %w", err)
	}
	var desc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if a, b := defsKey(desc.EndToEnd), defsKey(endToEnd); a != b {
		return fmt.Errorf("%s end_to_end lists %s, program reports %s", path, a, b)
	}
	if a, b := defsKey(desc.PerLayer), defsKey(perLayer); a != b {
		return fmt.Errorf("%s per_layer lists %s, program reports %s", path, a, b)
	}
	return nil
}

func defsKey(defs []metricDef) string {
	keys := make([]string, len(defs))
	for i, d := range defs {
		keys[i] = d.Name + "/" + d.Unit
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(raw))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// procSample is a point-in-time reading of the process counters a measured
// phase reports as deltas.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	gcs     uint32
	pauseNs uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{wall: time.Now(), cpu: cpuTime(), gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// phase is the difference between two procSamples.
type phase struct {
	cpu     time.Duration
	gcs     uint32
	pauseMS float64
}

func since(s procSample) phase {
	e := sampleProc()
	return phase{
		cpu:     e.cpu - s.cpu,
		gcs:     e.gcs - s.gcs,
		pauseMS: float64(e.pauseNs-s.pauseNs) / 1e6,
	}
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// heapMB collects garbage and returns the live heap in MB. Callers keep
// the workload's state reachable across the call. The second collection
// empties what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// allocBytes reads the cumulative heap allocation counter without stopping
// the world, for per-call allocation deltas.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// timeSetups builds the workload state setupReps times and returns the
// median build time in seconds. build keeps whatever state its last call
// made. Before every build after the first, release drops the state of the
// previous one; that and a garbage collection run outside the timer, so no
// build pays for the one before it.
func timeSetups(out io.Writer, tr *tracer, release func() error, build func(parent int) error) (float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := release(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		sp := tr.start("setup", -1)
		begin := time.Now()
		if err := build(sp); err != nil {
			return 0, err
		}
		times = append(times, time.Since(begin).Seconds())
		tr.end(sp)
	}
	fmt.Fprintf(out, "# setup builds (s): %.4g\n", times)
	return median(times), nil
}

// opStats summarises a phase of repeated operations.
type opStats struct {
	lat  []float64 // per-operation wall time in ms; +Inf for a failure
	ph   phase
	done int64
}

// repeatOps calls op until d has passed and at least minOps calls were
// made. An op that returns an error counts as failed and as infinitely
// slow, so it misses any latency limit.
func (r *runner) repeatOps(d time.Duration, minOps int, op func() error) opStats {
	var st opStats
	start := sampleProc()
	for len(st.lat) < minOps || time.Since(start.wall) < d {
		begin := time.Now()
		err := op()
		took := ms(time.Since(begin))
		r.attempted++
		if err != nil {
			if r.failed++; r.failed == 1 {
				r.check(false, "operation failed: %v", err)
			}
			took = math.Inf(1)
		} else {
			st.done++
		}
		st.lat = append(st.lat, took)
	}
	st.ph = since(start)
	return st
}

// setOpMetrics fills the end-to-end metrics of an operation-based workload.
func (r *runner) setOpMetrics(st opStats, setupS, heap float64) {
	r.e2e["latency_ms"] = median(st.lat)
	if st.done > 0 {
		r.e2e["cpu_ms"] = ms(st.ph.cpu) / float64(st.done)
	}
	r.e2e["heap_mb"] = heap
	r.e2e["setup_s"] = setupS
}

// setProcLayer fills the process-level per-layer metrics of a traced phase.
func (r *runner) setProcLayer(ph phase) {
	r.layer["proc.gc_cycles"] = float64(ph.gcs)
	r.layer["proc.gc_pause_ms"] = ph.pauseMS
}

func pct(a, b float64) float64 { return (a - b) / b * 100 }
