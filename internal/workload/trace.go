package workload

import (
	"cmp"
	"fmt"
	"slices"

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

// Validate reports whether the parameters are usable.
func (p TraceParams) Validate() error {
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

// GenerateRequests synthesizes the per-cache request logs for numCaches
// caches and merges them into one time-ordered stream.
func GenerateRequests(c *Catalog, numCaches int, params TraceParams, src *simrand.Source) ([]Request, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if numCaches < 1 {
		return nil, fmt.Errorf("workload: numCaches must be >= 1, got %d", numCaches)
	}
	var out []Request
	for i := 0; i < numCaches; i++ {
		cacheSrc := src.SplitN("cache", i)
		lp := newLocalProfile(c.NumDocuments(), cacheSrc.Split("perm"))
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
			out = append(out, Request{TimeSec: t, Cache: topology.CacheIndex(i), Doc: doc})
		}
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return out, nil
}

// GenerateUpdates synthesizes the origin server's update log over the given
// duration: each dynamic document receives Poisson updates at its own rate.
func GenerateUpdates(c *Catalog, durationSec float64, src *simrand.Source) ([]Update, error) {
	if durationSec <= 0 {
		return nil, fmt.Errorf("workload: durationSec must be > 0, got %v", durationSec)
	}
	var out []Update
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
			out = append(out, Update{TimeSec: t, Doc: doc.ID})
		}
	}
	slices.SortStableFunc(out, func(a, b Update) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	return out, nil
}
