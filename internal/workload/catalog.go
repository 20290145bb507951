// Package workload generates the synthetic traces that drive the
// cooperative edge cache simulator. The paper drives its simulator with
// request logs derived from the 2000 Sydney Olympics IBM web site trace and
// an update log applied at the origin server; that trace is not publicly
// available, so this package synthesizes traces with the two properties the
// paper relies on:
//
//  1. request patterns across edge caches exhibit considerable similarity
//     (a shared Zipf-popular core plus per-cache variation), and
//  2. content is dynamic — documents are updated at the origin, which
//     invalidates cached copies.
package workload

import (
	"fmt"
	"math"

	"edgecachegroups/internal/simrand"
)

// DocID identifies a document. IDs double as global popularity ranks:
// document 0 is the most popular.
type DocID int

// Document describes one item of origin content.
type Document struct {
	ID DocID `json:"id"`
	// SizeKB is the transfer size of the document.
	SizeKB float64 `json:"sizeKB"`
	// UpdateRatePerSec is the Poisson rate at which the origin updates this
	// document; zero means static content.
	UpdateRatePerSec float64 `json:"updateRatePerSec"`
}

// CatalogParams configures document catalog synthesis.
type CatalogParams struct {
	// NumDocuments is the catalog size.
	NumDocuments int
	// ZipfAlpha is the popularity skew (web workloads: 0.6–1.0).
	ZipfAlpha float64
	// MeanSizeKB and SizeSigma parameterize the lognormal document size
	// distribution (sigma is the lognormal shape parameter).
	MeanSizeKB float64
	SizeSigma  float64
	// DynamicFraction is the fraction of documents that receive origin
	// updates.
	DynamicFraction float64
	// UpdateRateMin/Max bound the per-document update rate (updates/sec)
	// drawn uniformly for dynamic documents.
	UpdateRateMin float64
	UpdateRateMax float64
}

// DefaultCatalogParams returns the catalog used by the experiments:
// 2000 documents, Zipf(0.8), ~12KB mean size, 30% dynamic.
func DefaultCatalogParams() CatalogParams {
	return CatalogParams{
		NumDocuments:    2000,
		ZipfAlpha:       0.8,
		MeanSizeKB:      12,
		SizeSigma:       0.6,
		DynamicFraction: 0.3,
		UpdateRateMin:   0.001,
		UpdateRateMax:   0.05,
	}
}

// Validate reports whether the parameters are usable. NaN slips through
// every ordered comparison below, and a NaN or infinite update rate would
// never let GenerateUpdates finish, so non-finite values are rejected
// first.
func (p CatalogParams) Validate() error {
	if err := checkFinite(
		namedValue{"ZipfAlpha", p.ZipfAlpha},
		namedValue{"MeanSizeKB", p.MeanSizeKB},
		namedValue{"SizeSigma", p.SizeSigma},
		namedValue{"DynamicFraction", p.DynamicFraction},
		namedValue{"UpdateRateMin", p.UpdateRateMin},
		namedValue{"UpdateRateMax", p.UpdateRateMax},
	); err != nil {
		return err
	}
	switch {
	case p.NumDocuments < 1:
		return fmt.Errorf("workload: NumDocuments must be >= 1, got %d", p.NumDocuments)
	case p.ZipfAlpha < 0:
		return fmt.Errorf("workload: ZipfAlpha must be >= 0, got %v", p.ZipfAlpha)
	case p.MeanSizeKB <= 0:
		return fmt.Errorf("workload: MeanSizeKB must be > 0, got %v", p.MeanSizeKB)
	case p.SizeSigma < 0:
		return fmt.Errorf("workload: SizeSigma must be >= 0, got %v", p.SizeSigma)
	case p.DynamicFraction < 0 || p.DynamicFraction > 1:
		return fmt.Errorf("workload: DynamicFraction must be in [0,1], got %v", p.DynamicFraction)
	case p.UpdateRateMin < 0 || p.UpdateRateMax < p.UpdateRateMin:
		return fmt.Errorf("workload: update rate range [%v,%v] invalid", p.UpdateRateMin, p.UpdateRateMax)
	}
	return nil
}

// Catalog is an immutable set of documents with a global Zipf popularity
// profile. It is safe for concurrent reads.
type Catalog struct {
	docs []Document
	zipf *simrand.Zipf
}

// NewCatalog synthesizes a catalog.
func NewCatalog(params CatalogParams, src *simrand.Source) (*Catalog, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	zipf, err := simrand.NewZipf(params.NumDocuments, params.ZipfAlpha)
	if err != nil {
		return nil, fmt.Errorf("popularity profile: %w", err)
	}
	// Lognormal with the requested mean: mean = exp(mu + sigma^2/2).
	mu := math.Log(params.MeanSizeKB) - params.SizeSigma*params.SizeSigma/2

	docs := make([]Document, params.NumDocuments)
	for i := range docs {
		size := src.LogNormal(mu, params.SizeSigma)
		if size < 0.1 {
			size = 0.1
		}
		var rate float64
		if src.Float64() < params.DynamicFraction {
			rate = src.Uniform(params.UpdateRateMin, params.UpdateRateMax)
		}
		docs[i] = Document{ID: DocID(i), SizeKB: size, UpdateRatePerSec: rate}
	}
	return &Catalog{docs: docs, zipf: zipf}, nil
}

// NumDocuments returns the catalog size.
func (c *Catalog) NumDocuments() int { return len(c.docs) }

// Doc returns document d.
func (c *Catalog) Doc(d DocID) (Document, error) {
	if int(d) < 0 || int(d) >= len(c.docs) {
		return Document{}, fmt.Errorf("workload: document %d out of range [0,%d)", d, len(c.docs))
	}
	return c.docs[int(d)], nil
}

// SampleGlobal draws a document from the global Zipf popularity profile.
func (c *Catalog) SampleGlobal(src *simrand.Source) DocID {
	return DocID(c.zipf.Sample(src))
}

// MeanSizeKB returns the mean document size of the catalog.
func (c *Catalog) MeanSizeKB() float64 {
	var sum float64
	for _, d := range c.docs {
		sum += d.SizeKB
	}
	return sum / float64(len(c.docs))
}
