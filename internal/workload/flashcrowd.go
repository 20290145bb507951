package workload

import (
	"fmt"
	"sort"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// FlashCrowdParams describes a flash-crowd episode layered on top of a
// base trace: during [StartSec, EndSec) every cache redirects a share of
// its requests to a small set of suddenly-hot documents (think: a medal
// final on an event site). This is the workload regime that stresses
// cooperative groups hardest — the hot set is identical everywhere, so
// group hit rates spike while origin updates keep invalidating the hot
// documents.
type FlashCrowdParams struct {
	// StartSec and EndSec bound the episode.
	StartSec float64
	EndSec   float64
	// HotDocs is the number of flash-hot documents (drawn uniformly from
	// the catalog).
	HotDocs int
	// Share is the probability a request during the episode targets the
	// hot set.
	Share float64
	// RateBoost multiplies every cache's request rate during the episode.
	RateBoost float64
	// UpdateRatePerSec is the update rate applied to each hot document
	// during the episode (0 keeps the documents' own rates).
	UpdateRatePerSec float64
}

// Validate reports whether the parameters are usable against a catalog of
// numDocs documents.
func (p FlashCrowdParams) Validate(numDocs int) error {
	if err := checkFinite(
		namedValue{"StartSec", p.StartSec},
		namedValue{"EndSec", p.EndSec},
		namedValue{"Share", p.Share},
		namedValue{"RateBoost", p.RateBoost},
		namedValue{"UpdateRatePerSec", p.UpdateRatePerSec},
	); err != nil {
		return err
	}
	switch {
	case p.StartSec < 0 || p.EndSec <= p.StartSec:
		return fmt.Errorf("workload: flash crowd window [%v,%v) invalid", p.StartSec, p.EndSec)
	case p.HotDocs < 1 || p.HotDocs > numDocs:
		return fmt.Errorf("workload: HotDocs must be in [1,%d], got %d", numDocs, p.HotDocs)
	case p.Share < 0 || p.Share > 1:
		return fmt.Errorf("workload: Share must be in [0,1], got %v", p.Share)
	case p.RateBoost < 1:
		return fmt.Errorf("workload: RateBoost must be >= 1, got %v", p.RateBoost)
	case p.UpdateRatePerSec < 0:
		return fmt.Errorf("workload: UpdateRatePerSec must be >= 0, got %v", p.UpdateRatePerSec)
	}
	return nil
}

// FlashCrowd is a materialized episode: the hot set plus the parameters.
type FlashCrowd struct {
	Params  FlashCrowdParams
	HotSet  []DocID
	catalog *Catalog
}

// NewFlashCrowd draws the hot set for an episode.
func NewFlashCrowd(c *Catalog, params FlashCrowdParams, src *simrand.Source) (*FlashCrowd, error) {
	if err := params.Validate(c.NumDocuments()); err != nil {
		return nil, err
	}
	idx, err := src.SampleWithoutReplacement(c.NumDocuments(), params.HotDocs)
	if err != nil {
		return nil, fmt.Errorf("draw hot set: %w", err)
	}
	hot := make([]DocID, len(idx))
	for i, v := range idx {
		hot[i] = DocID(v)
	}
	sort.Slice(hot, func(a, b int) bool { return hot[a] < hot[b] })
	return &FlashCrowd{Params: params, HotSet: hot, catalog: c}, nil
}

// GenerateRequests synthesizes a request log with the flash-crowd episode
// applied: outside the window it behaves like GenerateRequests; inside it,
// arrival rates are boosted by RateBoost and a Share of requests target
// the hot set uniformly.
func (fc *FlashCrowd) GenerateRequests(numCaches int, base TraceParams, src *simrand.Source) ([]Request, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if numCaches < 1 {
		return nil, fmt.Errorf("workload: numCaches must be >= 1, got %d", numCaches)
	}
	var all []Request
	ends := make([]int, numCaches)
	for i := 0; i < numCaches; i++ {
		cacheSrc := src.SplitN("cache", i)
		lp := newLocalProfile(fc.catalog.NumDocuments(), cacheSrc.Split("perm"))
		t := 0.0
		for {
			rate := base.RequestRatePerCache
			inEpisode := t >= fc.Params.StartSec && t < fc.Params.EndSec
			if inEpisode {
				rate *= fc.Params.RateBoost
			}
			t += cacheSrc.Exponential(rate)
			if t >= base.DurationSec {
				break
			}
			// Re-evaluate episode membership at the arrival instant.
			inEpisode = t >= fc.Params.StartSec && t < fc.Params.EndSec
			var doc DocID
			switch {
			case inEpisode && cacheSrc.Float64() < fc.Params.Share:
				doc = fc.HotSet[cacheSrc.Intn(len(fc.HotSet))]
			case cacheSrc.Float64() < base.Similarity:
				doc = fc.catalog.SampleGlobal(cacheSrc)
			default:
				doc = lp.sample(fc.catalog, cacheSrc)
			}
			all = append(all, Request{TimeSec: t, Cache: topology.CacheIndex(i), Doc: doc})
		}
		ends[i] = len(all)
	}
	return mergeRuns(cutRuns(all, ends), requestTime), nil
}

// GenerateUpdates synthesizes the update log with the episode applied: the
// base per-document rates everywhere, plus Poisson updates at
// UpdateRatePerSec for each hot document inside the window. The base log
// and each hot document's updates are runs in time order, merged with the
// base log first and the hot documents in HotSet order on equal times.
func (fc *FlashCrowd) GenerateUpdates(durationSec float64, src *simrand.Source) ([]Update, error) {
	base, err := GenerateUpdates(fc.catalog, durationSec, src.Split("base"))
	if err != nil || fc.Params.UpdateRatePerSec <= 0 {
		return base, err
	}
	end := fc.Params.EndSec
	if end > durationSec {
		end = durationSec
	}
	var hot []Update
	ends := make([]int, len(fc.HotSet))
	for i, doc := range fc.HotSet {
		docSrc := src.SplitN("hot", i)
		t := fc.Params.StartSec
		for {
			t += docSrc.Exponential(fc.Params.UpdateRatePerSec)
			if t >= end {
				break
			}
			hot = append(hot, Update{TimeSec: t, Doc: doc})
		}
		ends[i] = len(hot)
	}
	return mergeRuns(append([][]Update{base}, cutRuns(hot, ends)...), updateTime), nil
}
