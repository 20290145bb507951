package workload

import (
	"fmt"
	"math"
	"runtime"

	"edgecachegroups/internal/par"
	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// Request is one client request arriving at an edge cache.
type Request struct {
	// TimeSec is the arrival time in seconds from simulation start.
	TimeSec float64 `json:"timeSec"`
	// Cache is the edge cache the request arrives at.
	Cache topology.CacheIndex `json:"cache"`
	// Doc is the requested document.
	Doc DocID `json:"doc"`
}

// Update is one origin-side document update.
type Update struct {
	// TimeSec is the update time in seconds from simulation start.
	TimeSec float64 `json:"timeSec"`
	// Doc is the updated document.
	Doc DocID `json:"doc"`
}

// TraceParams configures request-log synthesis.
type TraceParams struct {
	// DurationSec is the trace length.
	DurationSec float64
	// RequestRatePerCache is the Poisson arrival rate at each cache
	// (requests/sec).
	RequestRatePerCache float64
	// Similarity in [0,1] is the probability that a request follows the
	// global popularity profile; the rest follow a cache-local profile,
	// modelling per-region interest variation.
	Similarity float64
}

// DefaultTraceParams returns the trace configuration used by the
// experiments.
func DefaultTraceParams() TraceParams {
	return TraceParams{
		DurationSec:         600,
		RequestRatePerCache: 0.6,
		Similarity:          0.8,
	}
}

// namedValue is one float parameter and the name an error reports it by.
type namedValue struct {
	name string
	v    float64
}

// checkFinite rejects the first NaN or infinite value. NaN slips through
// every ordered comparison, and a NaN or infinite duration or rate never
// ends a generator's arrival loop, so the validators run this first.
func checkFinite(vals ...namedValue) error {
	for _, f := range vals {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s must be finite, got %v", f.name, f.v)
		}
	}
	return nil
}

// Validate reports whether the parameters are usable.
func (p TraceParams) Validate() error {
	if err := checkFinite(
		namedValue{"DurationSec", p.DurationSec},
		namedValue{"RequestRatePerCache", p.RequestRatePerCache},
		namedValue{"Similarity", p.Similarity},
	); err != nil {
		return err
	}
	switch {
	case p.DurationSec <= 0:
		return fmt.Errorf("workload: DurationSec must be > 0, got %v", p.DurationSec)
	case p.RequestRatePerCache <= 0:
		return fmt.Errorf("workload: RequestRatePerCache must be > 0, got %v", p.RequestRatePerCache)
	case p.Similarity < 0 || p.Similarity > 1:
		return fmt.Errorf("workload: Similarity must be in [0,1], got %v", p.Similarity)
	}
	return nil
}

// localProfile maps the global rank distribution through a per-cache
// permutation, giving each cache its own long tail while hot global
// documents remain broadly popular.
type localProfile struct {
	perm []int
}

func newLocalProfile(n int, src *simrand.Source) localProfile {
	return localProfile{perm: src.Perm(n)}
}

func (lp localProfile) sample(c *Catalog, src *simrand.Source) DocID {
	rank := int(c.SampleGlobal(src))
	return DocID(lp.perm[rank])
}

func requestTime(r Request) float64 { return r.TimeSec }

func updateTime(u Update) float64 { return u.TimeSec }

// poissonCap sizes a buffer for a Poisson count of the given mean: the
// mean plus four standard deviations, so append almost never regrows it. A
// mean beyond 1<<20 starts the buffer at 1<<20 and leaves the rest to
// append.
func poissonCap(mean float64) int {
	if !(mean < 1<<20) {
		return 1 << 20
	}
	return int(mean+4*math.Sqrt(mean)) + 1
}

// GenerateRequests synthesizes the per-cache request logs for numCaches
// caches and merges them into one time-ordered stream. Each cache's log is
// a run in time order, drawn from the cache's own SplitN("cache", i)
// stream, so the runs are generated on GOMAXPROCS workers and the stream
// is the same at any worker count; equal times across caches come out in
// cache order.
func GenerateRequests(c *Catalog, numCaches int, params TraceParams, src *simrand.Source) ([]Request, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if numCaches < 1 {
		return nil, fmt.Errorf("workload: numCaches must be >= 1, got %d", numCaches)
	}
	runs := make([][]Request, numCaches)
	perCache := poissonCap(params.RequestRatePerCache * params.DurationSec)
	par.ForEach(numCaches, runtime.GOMAXPROCS(0), func(i int) {
		cacheSrc := src.SplitN("cache", i)
		lp := newLocalProfile(c.NumDocuments(), cacheSrc.Split("perm"))
		run := make([]Request, 0, perCache)
		t := 0.0
		for {
			t += cacheSrc.Exponential(params.RequestRatePerCache)
			if t >= params.DurationSec {
				break
			}
			var doc DocID
			if cacheSrc.Float64() < params.Similarity {
				doc = c.SampleGlobal(cacheSrc)
			} else {
				doc = lp.sample(c, cacheSrc)
			}
			run = append(run, Request{TimeSec: t, Cache: topology.CacheIndex(i), Doc: doc})
		}
		runs[i] = run
	})
	return mergeRuns(runs, requestTime), nil
}

// GenerateUpdates synthesizes the origin server's update log over the given
// duration: each dynamic document receives Poisson updates at its own rate.
// Each document's updates are a run in time order; equal times across
// documents come out in document order.
func GenerateUpdates(c *Catalog, durationSec float64, src *simrand.Source) ([]Update, error) {
	if err := checkFinite(namedValue{"durationSec", durationSec}); err != nil {
		return nil, err
	}
	if durationSec <= 0 {
		return nil, fmt.Errorf("workload: durationSec must be > 0, got %v", durationSec)
	}
	var all []Update
	var ends []int
	for i := 0; i < c.NumDocuments(); i++ {
		doc := c.docs[i]
		if doc.UpdateRatePerSec <= 0 {
			continue
		}
		docSrc := src.SplitN("doc", i)
		t := 0.0
		for {
			t += docSrc.Exponential(doc.UpdateRatePerSec)
			if t >= durationSec {
				break
			}
			all = append(all, Update{TimeSec: t, Doc: doc.ID})
		}
		ends = append(ends, len(all))
	}
	return mergeRuns(cutRuns(all, ends), updateTime), nil
}
