package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/obs"
	"edgecachegroups/internal/serve"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

const (
	daemonCaches = 2000
	daemonK      = 200

	// assignRate is the fixed open-loop GET /assign rate. The --sweep mode
	// measures where p99 leaves sweepP99LimitMS; this rate sits well below
	// that knee so the median measures service time, not queueing.
	assignRate = 2000

	// Drift windows: every window POSTs one drift batch to /stats and then
	// runs one maintenance tick. Every largeDriftEvery-th window moves
	// largeDrift of the caches, above the maintainer's default re-cluster
	// fraction (0.5), so it forces a full re-formation; the others move
	// smallDrift and are handled incrementally.
	windowLen       = time.Second
	largeDriftEvery = 3
	smallDrift      = 0.10
	largeDrift      = 0.70

	requestTimeout = 5 * time.Second

	// maintIdle keeps the engine's own tick loop from firing during a run:
	// the benchmark calls Engine.Tick itself at fixed windows, which keeps
	// the epoch sequence a function of the seed.
	maintIdle = 24 * time.Hour
)

// driftWindow is one window's batch of /stats reports.
type driftWindow struct {
	stats []serve.CacheStat
	body  []byte // the batch encoded as a POST /stats body
	large bool
}

// newDriftWindows builds the prime batch (every cache reporting its boot
// features, so that later rounds measure every cache) and the drift
// windows. A drifting cache toggles between its boot vector and the boot
// vector scaled per landmark by a factor in [1.5, 2], so each move changes
// the vector by at least 25% relative L2, beyond the 20% drift threshold.
func newDriftWindows(plan *core.Plan, windows int, src *simrand.Source) (driftWindow, []driftWindow, error) {
	n := plan.NumCaches()
	base := plan.Features
	prime := make([]serve.CacheStat, n)
	scale := make([][]float64, n)
	scaleSrc := src.Split("scale")
	for c := range prime {
		prime[c] = serve.CacheStat{Cache: c, RTTMS: append([]float64(nil), base[c]...)}
		scale[c] = make([]float64, len(base[c]))
		for j := range scale[c] {
			scale[c][j] = scaleSrc.Uniform(1.5, 2)
		}
	}
	primeWin, err := encodeWindow(prime, false)
	if err != nil {
		return driftWindow{}, nil, err
	}
	up := make([]bool, n)
	out := make([]driftWindow, windows)
	for w := range out {
		large := (w+1)%largeDriftEvery == 0
		frac := smallDrift
		if large {
			frac = largeDrift
		}
		idx, err := src.SplitN("window", w).SampleWithoutReplacement(n, int(frac*float64(n)))
		if err != nil {
			return driftWindow{}, nil, err
		}
		sort.Ints(idx)
		stats := make([]serve.CacheStat, len(idx))
		for i, c := range idx {
			up[c] = !up[c]
			v := append([]float64(nil), base[c]...)
			if up[c] {
				for j := range v {
					v[j] *= scale[c][j]
				}
			}
			stats[i] = serve.CacheStat{Cache: c, RTTMS: v}
		}
		if out[w], err = encodeWindow(stats, large); err != nil {
			return driftWindow{}, nil, err
		}
	}
	return primeWin, out, nil
}

func encodeWindow(stats []serve.CacheStat, large bool) (driftWindow, error) {
	body, err := json.Marshal(struct {
		Stats []serve.CacheStat `json:"stats"`
	}{stats})
	if err != nil {
		return driftWindow{}, fmt.Errorf("encode stats batch: %w", err)
	}
	return driftWindow{stats: stats, body: body, large: large}, nil
}

// daemon is one in-process serving daemon plus the inputs a run sends it.
type daemon struct {
	seed    int64
	plan    *core.Plan // boot plan
	prime   driftWindow
	windows []driftWindow
	reads   []int32 // cache asked for by each GET /assign, in send order
	eng     *serve.Engine
	srv     *serve.Server
	client  *http.Client
	base    string
}

// newEngine builds a serving engine over the boot plan exactly as every
// run does, so two engines fed the same batches publish the same epochs.
func newEngine(plan *core.Plan, seed int64, o *obs.Obs) (*serve.Engine, error) {
	return serve.NewEngine(serve.Config{
		Plan:  plan,
		Rand:  simrand.New(seed).Split("engine"),
		Obs:   o,
		Maint: core.MaintainerConfig{Interval: maintIdle},
	})
}

// numWindows is the number of drift windows in a measured phase.
func numWindows(d time.Duration) int {
	n := int(d / windowLen)
	if n < largeDriftEvery {
		n = largeDriftEvery
	}
	return n
}

// setupDaemon forms the boot plan, generates the drift windows and the
// read sequence, starts the daemon on a loopback port and primes it with
// every cache's boot features.
func setupDaemon(tr *tracer, parent int, seed int64, rate float64, d time.Duration) (*daemon, error) {
	root := simrand.New(seed)
	net, err := buildNetwork(tr, parent, root, daemonCaches)
	if err != nil {
		return nil, err
	}
	plan, err := formPlan(tr, parent, net, root.Split("formation"), daemonK)
	if err != nil {
		return nil, err
	}
	prime, windows, err := newDriftWindows(plan, numWindows(d), root.Split("drift"))
	if err != nil {
		return nil, err
	}
	reads := make([]int32, int(rate*d.Seconds()))
	readSrc := root.Split("reads")
	for j := range reads {
		reads[j] = int32(readSrc.Intn(daemonCaches))
	}
	o := obs.New()
	eng, err := newEngine(plan, seed, o)
	if err != nil {
		return nil, err
	}
	srv, err := serve.Serve("127.0.0.1:0", eng, o)
	if err != nil {
		return nil, err
	}
	dm := &daemon{
		seed: seed, plan: plan, prime: prime, windows: windows, reads: reads, eng: eng, srv: srv,
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0) + 1},
		},
		base: "http://" + srv.Addr(),
	}
	if err := dm.post(prime.body); err != nil {
		return nil, errors.Join(fmt.Errorf("prime stats: %w", err), dm.close())
	}
	if ev, err := eng.Tick(); err != nil || len(ev.Drifted) != 0 {
		return nil, errors.Join(fmt.Errorf("prime tick: %d caches drifted, error %v", len(ev.Drifted), err), dm.close())
	}
	return dm, nil
}

func (dm *daemon) close() error {
	dm.client.CloseIdleConnections()
	return dm.srv.Close()
}

func (dm *daemon) post(body []byte) error {
	resp, err := dm.client.Post(dm.base+"/stats", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /stats: %s", resp.Status)
	}
	return nil
}

type assignReply struct {
	Cache int    `json:"cache"`
	Group int    `json:"group"`
	Epoch uint64 `json:"epoch"`
}

func (dm *daemon) assign(cache int) (assignReply, error) {
	var a assignReply
	resp, err := dm.client.Get(dm.base + "/assign?cache=" + strconv.Itoa(cache))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("GET /assign: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decode /assign reply: %w", err)
	}
	if a.Cache != cache {
		return a, fmt.Errorf("GET /assign?cache=%d answered for cache %d", cache, a.Cache)
	}
	return a, nil
}

// epochRec identifies one published epoch.
type epochRec struct {
	seq      uint64
	checksum uint64
}

// onlineRun is what one measured phase against the live daemon recorded.
type onlineRun struct {
	// Per read, in send order: latency from the time the read was due
	// (+Inf when it failed), how late it was sent, and its round trip.
	lat, lag, rtt []float64
	replies       []assignReply
	errs          []error
	// Per window.
	ingestMS, tickMS []float64
	reclustered      []bool
	after            []epochRec // the serving epoch after the window's tick
	reassigned       int
	boot             uint64
	epochs           map[uint64]*core.Plan
	attempted        int64
	failed           int64
	problems         []string
	ph               phase
}

// online runs the measured phase: senders (at most GOMAXPROCS goroutines)
// issue GET /assign on an open-loop schedule at rate while this goroutine
// POSTs one drift batch and runs one Engine.Tick in the middle of every
// window. Reads from index traceFrom on, and windows from traceWindow on,
// are recorded as spans when tr is non-nil.
func (dm *daemon) online(tr *tracer, rate float64, traceFrom, traceWindow int) *onlineRun {
	total := len(dm.reads)
	run := &onlineRun{
		lat: make([]float64, total), lag: make([]float64, total), rtt: make([]float64, total),
		replies: make([]assignReply, total), errs: make([]error, total),
		ingestMS: make([]float64, len(dm.windows)), tickMS: make([]float64, len(dm.windows)),
		reclustered: make([]bool, len(dm.windows)), after: make([]epochRec, len(dm.windows)),
		epochs: map[uint64]*core.Plan{},
	}
	boot := dm.eng.Epoch()
	run.boot = boot.Seq
	run.epochs[boot.Seq] = boot.Plan
	interval := time.Duration(float64(time.Second) / rate)

	start := sampleProc()
	t0 := time.Now().Add(10 * time.Millisecond)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for s := 0; s < runtime.GOMAXPROCS(0); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= total {
					return
				}
				due := t0.Add(time.Duration(j) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				reply, err := dm.assign(int(dm.reads[j]))
				done := time.Now()
				run.lag[j], run.rtt[j] = ms(sent.Sub(due)), ms(done.Sub(sent))
				run.replies[j], run.errs[j] = reply, err
				run.lat[j] = ms(done.Sub(due))
				if err != nil {
					run.lat[j] = math.Inf(1)
				}
				if tr != nil && j >= traceFrom {
					tr.record("serve.http_assign", -1, sent, done)
				}
			}
		}()
	}

	for w, win := range dm.windows {
		if wait := time.Until(t0.Add(time.Duration(w)*windowLen + windowLen/2)); wait > 0 {
			time.Sleep(wait)
		}
		traced := tr != nil && w >= traceWindow
		begin := time.Now()
		err := dm.post(win.body)
		run.ingestMS[w] = ms(time.Since(begin))
		if traced {
			tr.record("serve.http_ingest", -1, begin, time.Now())
		}
		run.attempted++
		if err != nil {
			run.failed++
			run.problems = append(run.problems, fmt.Sprintf("window %d: %v", w, err))
		}
		begin = time.Now()
		ev, err := dm.eng.Tick()
		run.tickMS[w] = ms(time.Since(begin))
		if traced {
			tr.record("serve.tick", -1, begin, time.Now())
		}
		run.attempted++
		if err != nil {
			run.failed++
			run.problems = append(run.problems, fmt.Sprintf("window %d tick: %v", w, err))
		}
		if ev.Reclustered != win.large {
			run.problems = append(run.problems, fmt.Sprintf("window %d: re-clustered=%v, want %v", w, ev.Reclustered, win.large))
		}
		run.reclustered[w] = ev.Reclustered
		run.reassigned += len(ev.Reassigned)
		ep := dm.eng.Epoch()
		run.epochs[ep.Seq] = ep.Plan
		run.after[w] = epochRec{ep.Seq, ep.Checksum}
	}
	wg.Wait()
	run.ph = since(start)

	// Every answer must be the group the plan of the epoch it names gives.
	var wrong int
	for j, reply := range run.replies {
		run.attempted++
		if run.errs[j] != nil {
			run.failed++
			continue
		}
		plan, ok := run.epochs[reply.Epoch]
		g, err := -1, error(nil)
		if ok {
			g, err = plan.GroupOf(topology.CacheIndex(reply.Cache))
		}
		if !ok || err != nil || g != reply.Group {
			run.failed++
			if wrong++; wrong == 1 {
				run.problems = append(run.problems, fmt.Sprintf("read %d: cache %d in group %d under epoch %d, plan says %d (known epoch %v, %v)",
					j, reply.Cache, reply.Group, reply.Epoch, g, ok, err))
			}
		}
	}
	if wrong > 1 {
		run.problems = append(run.problems, fmt.Sprintf("%d reads in all got a wrong answer", wrong))
	}
	return run
}

// replayStats is what the direct replay of the drift windows measured.
type replayStats struct {
	ingestUS, reclusterMS []float64
	assignUS              []float64
}

// replay feeds the same windows to a second engine through direct
// Engine.Ingest and Engine.Tick calls and fails unless it publishes the
// same epoch sequence as the live daemon. With a tracer it also times the
// direct layer calls: Ingest, the K-means a re-cluster round runs, and
// Engine.Assign.
func (dm *daemon) replay(tr *tracer, online []epochRec) (*replayStats, error) {
	eng, err := newEngine(dm.plan, dm.seed, nil)
	if err != nil {
		return nil, err
	}
	if err := eng.Ingest(dm.prime.stats); err != nil {
		return nil, err
	}
	if _, err := eng.Tick(); err != nil {
		return nil, err
	}
	st := &replayStats{}
	for w, win := range dm.windows {
		begin := time.Now()
		err := eng.Ingest(win.stats)
		st.ingestUS = append(st.ingestUS, float64(time.Since(begin))/float64(time.Microsecond))
		if err != nil {
			return nil, fmt.Errorf("window %d ingest: %w", w, err)
		}
		ev, err := eng.Tick()
		if err != nil {
			return nil, fmt.Errorf("window %d tick: %w", w, err)
		}
		ep := eng.Epoch()
		if got := (epochRec{ep.Seq, ep.Checksum}); got != online[w] {
			return nil, fmt.Errorf("window %d: replay published epoch %d checksum %016x, live daemon %d checksum %016x",
				w, got.seq, got.checksum, online[w].seq, online[w].checksum)
		}
		if tr != nil && ev.Reclustered {
			// The same points and k the re-cluster round clustered, with
			// the engine's re-cluster seeding.
			sp := tr.start("cluster.recluster", -1)
			begin := time.Now()
			_, err := cluster.KMeans(ep.Plan.Points, ep.Plan.NumGroups(), cluster.SpreadSeeder{}, cluster.Options{},
				simrand.New(dm.seed).Split("engine").Split("recluster"))
			st.reclusterMS = append(st.reclusterMS, ms(time.Since(begin)))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("window %d re-cluster replay: %w", w, err)
			}
		}
	}
	if tr == nil {
		return st, nil
	}
	// Engine.Assign is sub-microsecond, so time batches of calls.
	const batch = 1000
	plan := eng.Epoch().Plan
	for b := 0; b+batch <= len(dm.reads) && b < 50*batch; b += batch {
		begin := time.Now()
		for _, c := range dm.reads[b : b+batch] {
			g, ep, err := eng.Assign(int(c))
			if err != nil || ep.Plan != plan {
				return nil, fmt.Errorf("Engine.Assign(%d): epoch %d, %v", c, ep.Seq, err)
			}
			if want, err := plan.GroupOf(topology.CacheIndex(c)); err != nil || g != want {
				return nil, fmt.Errorf("Engine.Assign(%d) = %d, plan says %d (%v)", c, g, want, err)
			}
		}
		st.assignUS = append(st.assignUS, float64(time.Since(begin))/float64(time.Microsecond)/batch)
	}
	return st, nil
}

// runDaemonDrift measures the serving path: /assign latency from the time
// each read was due, while drift batches and maintenance ticks run beside
// the reads.
func runDaemonDrift(r *runner) error {
	total, half := r.measured()
	var dm *daemon
	release := func() error {
		err := dm.close()
		dm = nil
		return err
	}
	setupS, err := timeSetups(r.out, r.tr, release, func(parent int) error {
		var err error
		dm, err = setupDaemon(r.tr, parent, r.opts.seed, assignRate, total)
		return err
	})
	if err != nil {
		return err
	}
	defer dm.close()
	r.layer["topology.generate_ms"] = r.tr.medianMS("topology.generate")
	r.layer["topology.network_ms"] = r.tr.medianMS("topology.network")

	// Warm-up: a few hundred reads through the same client connections.
	for j := 0; j < 500; j++ {
		if _, err := dm.assign(int(dm.reads[j%len(dm.reads)])); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}

	traceFrom, traceWindow := len(dm.reads), len(dm.windows)
	if r.opts.trace {
		traceFrom, traceWindow = int(float64(len(dm.reads))*half.Seconds()/total.Seconds()), len(dm.windows)/2
	}
	run := dm.online(r.tr, assignRate, traceFrom, traceWindow)
	r.attempted += run.attempted
	r.failed += run.failed
	for _, p := range run.problems {
		r.check(false, "%s", p)
	}
	rp, err := dm.replay(r.tr, run.after)
	r.check(err == nil, "replayed windows disagree with the live daemon: %v", err)
	if err := dm.srv.ServeErr(); err != nil {
		return err
	}

	var done int64
	for _, err := range run.errs {
		if err == nil {
			done++
		}
	}
	final := run.after[len(run.after)-1]
	if !r.opts.trace {
		r.e2e["latency_ms"] = median(run.lat)
		if done > 0 {
			r.e2e["cpu_ms"] = ms(run.ph.cpu) / float64(done)
		}
		r.e2e["setup_s"] = setupS
		inc, rec := splitTicks(run, 0)
		fmt.Fprintf(r.out, "# daemon-drift: reads n=%d p50=%.4gms p99=%.4gms p999=%.4gms, ingest p50=%.4gms, tick p50=%.4gms (n=%d), recluster p50=%.4gms (n=%d), epochs=%d final checksum=%016x\n",
			len(run.lat), median(run.lat), quantile(run.lat, 0.99), quantile(run.lat, 0.999), median(run.ingestMS),
			median(inc), len(inc), median(rec), len(rec), final.seq-run.boot, final.checksum)
		// heap_mb is what the daemon retains: drop the benchmark's own
		// inputs and records first, so only the engine and server remain.
		run = nil
		dm.plan, dm.prime, dm.windows, dm.reads = nil, driftWindow{}, nil, nil
		r.e2e["heap_mb"] = heapMB()
		runtime.KeepAlive(dm)
		return nil
	}

	tLat, uLat := run.lat[traceFrom:], run.lat[:traceFrom]
	tLag, tRTT := run.lag[traceFrom:], run.rtt[traceFrom:]
	inc, rec := splitTicks(run, traceWindow)
	reclusters := 0
	for _, rc := range run.reclustered {
		if rc {
			reclusters++
		}
	}
	r.layer["serve.http_assign_ms"] = median(tRTT)
	r.layer["proc.gen_lag_ms"] = median(tLag)
	r.layer["serve.assign_p99_ms"] = quantile(tLat, 0.99)
	r.layer["serve.assign_p999_ms"] = quantile(tLat, 0.999)
	r.layer["serve.ingest_ms"] = median(run.ingestMS[traceWindow:])
	r.layer["serve.tick_ms"] = median(inc)
	r.layer["serve.recluster_ms"] = median(rec)
	r.layer["serve.reassigned"] = float64(run.reassigned)
	r.layer["serve.reclusters"] = float64(reclusters)
	r.layer["serve.epochs"] = float64(final.seq - run.boot)
	if rp != nil {
		r.layer["serve.ingest_us"] = median(rp.ingestUS)
		r.layer["serve.assign_us"] = median(rp.assignUS)
		r.layer["cluster.recluster_ms"] = median(rp.reclusterMS)
	}
	r.setProcLayer(run.ph)
	r.layer["obs.trace_overhead_pct"] = pct(median(tLat), median(uLat))
	r.layer["obs.layer_gap_pct"] = pct(median(tLag)+median(tRTT), median(tLat))
	return nil
}

// splitTicks returns the wall times of the incremental and the
// re-clustering ticks of the windows from index from on.
func splitTicks(run *onlineRun, from int) (incremental, recluster []float64) {
	for w := from; w < len(run.tickMS); w++ {
		if run.reclustered[w] {
			recluster = append(recluster, run.tickMS[w])
		} else {
			incremental = append(incremental, run.tickMS[w])
		}
	}
	return incremental, recluster
}

// Sweep limits: a rate passes while p99 read latency stays under
// sweepP99LimitMS and the generator keeps up (the median lag of the last
// tenth of the reads stays under sweepBacklogMS).
const (
	sweepP99LimitMS = 50
	sweepBacklogMS  = 1
)

// sweepDaemon steps the /assign rate with the drift windows running and
// reports the highest rate that meets the sweep limits. It is not part of
// the gated benchmark; its result is the reason for assignRate.
func sweepDaemon(opts options, out io.Writer) error {
	d := time.Duration(opts.seconds * float64(time.Second))
	best := 0.0
	for _, rate := range []float64{1000, 2000, 3000, 4000, 6000, 8000, 12000, 16000} {
		dm, err := setupDaemon(nil, -1, opts.seed, rate, d)
		if err != nil {
			return err
		}
		run := dm.online(nil, rate, len(dm.reads), len(dm.windows))
		if err := dm.close(); err != nil {
			return err
		}
		tail := run.lag[len(run.lag)*9/10:]
		p99, backlog := quantile(run.lat, 0.99), median(tail)
		ok := run.failed == 0 && p99 <= sweepP99LimitMS && backlog <= sweepBacklogMS
		fmt.Fprintf(out, "# sweep rate=%g/s reads=%d failed=%d p50=%.4gms p99=%.4gms tail-lag=%.4gms cpu/read=%.4gms ok=%v\n",
			rate, len(run.lat), run.failed, median(run.lat), p99, backlog, ms(run.ph.cpu)/float64(len(run.lat)), ok)
		if !ok {
			break
		}
		best = rate
	}
	line, err := json.Marshal(map[string]float64{
		"highest_rate_per_s": best, "p99_limit_ms": sweepP99LimitMS, "backlog_limit_ms": sweepBacklogMS,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
