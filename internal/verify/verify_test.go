package verify

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/simrand"
)

func TestPartition(t *testing.T) {
	if err := Partition([]int{0, 1, 2, 0}, 3); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	tests := []struct {
		name   string
		assign []int
		k      int
	}{
		{"empty group", []int{0, 0, 2}, 3},
		{"out of range high", []int{0, 3}, 2},
		{"out of range negative", []int{0, -1}, 2},
		{"k too large", []int{0}, 2},
		{"k zero", []int{0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Partition(tt.assign, tt.k)
			if err == nil {
				t.Fatal("expected error")
			}
			var ve *Error
			if !errors.As(err, &ve) {
				t.Fatalf("error %v is not a *verify.Error", err)
			}
		})
	}
}

func TestCentersAreMeans(t *testing.T) {
	points := []cluster.Vector{{0, 0}, {2, 0}, {10, 10}}
	assign := []int{0, 0, 1}
	good := []cluster.Vector{{1, 0}, {10, 10}}
	if err := CentersAreMeans(points, assign, good); err != nil {
		t.Fatalf("exact means rejected: %v", err)
	}

	// The pre-fix K-means bug shape: an empty-cluster repair stole point 2
	// from cluster 1 into a new cluster, but cluster 1's center still
	// includes point 2's contribution (stale donor mean).
	stale := []cluster.Vector{{4, 10.0 / 3}, {10, 10}}
	if err := CentersAreMeans(points, assign, stale); err == nil {
		t.Fatal("stale donor center not caught")
	} else if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected message: %v", err)
	}

	// Tiny float noise within tolerance is accepted.
	noisy := []cluster.Vector{{1 + 1e-13, 0}, {10, 10 - 1e-12}}
	if err := CentersAreMeans(points, assign, noisy); err != nil {
		t.Fatalf("rounding-level noise rejected: %v", err)
	}
}

func TestPlanChecks(t *testing.T) {
	base := func() PlanData {
		return PlanData{
			NumCaches:       3,
			K:               2,
			Assignments:     []int{0, 0, 1},
			Points:          []cluster.Vector{{0, 0}, {2, 0}, {10, 10}},
			Centers:         []cluster.Vector{{1, 0}, {10, 10}},
			Features:        []cluster.Vector{{0, 0}, {2, 0}, {10, 10}},
			CentersAreMeans: true,
		}
	}
	if err := Plan(base()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*PlanData)
	}{
		{"wrong cache count", func(p *PlanData) { p.NumCaches = 4 }},
		{"missing point", func(p *PlanData) { p.Points = p.Points[:2] }},
		{"center count mismatch", func(p *PlanData) { p.Centers = p.Centers[:1] }},
		{"dimension mismatch", func(p *PlanData) { p.Points[1] = cluster.Vector{1} }},
		{"NaN center", func(p *PlanData) { p.Centers[0] = cluster.Vector{0, nan()} }},
		{"stale center", func(p *PlanData) { p.Centers[0] = cluster.Vector{5, 5} }},
		{"feature count mismatch", func(p *PlanData) { p.Features = p.Features[:1] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(&p)
			if err := Plan(p); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	// K-medoids plans skip the means check (centers are real points).
	p := base()
	p.CentersAreMeans = false
	p.Centers[0] = cluster.Vector{0, 0}
	if err := Plan(p); err != nil {
		t.Fatalf("medoid-style plan rejected: %v", err)
	}
}

func TestReportChecks(t *testing.T) {
	base := func() ReportData {
		return ReportData{
			Requests:               10,
			LocalHits:              4,
			GroupHits:              3,
			OriginFetches:          2,
			FailoverFetches:        1,
			Updates:                5,
			OfferedRequests:        12,
			OfferedUpdates:         5,
			OriginKB:               30,
			MinDocKB:               5,
			MaxDocKB:               20,
			InvalidationsOrigin:    4,
			InvalidationsForwarded: 2,
			NumGroups:              2,
			PerCacheCounts:         []int64{6, 4},
			PerGroupCounts:         []int64{7, 3},
		}
	}
	if err := Report(base()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*ReportData)
	}{
		{"outcome sum mismatch", func(r *ReportData) { r.LocalHits = 5 }},
		{"negative counter", func(r *ReportData) { r.GroupHits = -1 }},
		{"more recorded than offered", func(r *ReportData) { r.OfferedRequests = 9 }},
		{"more updates than offered", func(r *ReportData) { r.OfferedUpdates = 4 }},
		{"origin volume too small", func(r *ReportData) { r.OriginKB = 10 }},
		{"origin volume too large", func(r *ReportData) { r.OriginKB = 100 }},
		{"origin volume without fetches", func(r *ReportData) {
			r.OriginFetches, r.FailoverFetches, r.LocalHits = 0, 0, 7
		}},
		{"invalidation fan-out too high", func(r *ReportData) { r.InvalidationsOrigin = 11 }},
		{"forwarded without origin", func(r *ReportData) { r.InvalidationsOrigin = 0 }},
		{"per-cache sum mismatch", func(r *ReportData) { r.PerCacheCounts = []int64{6, 5} }},
		{"per-group sum mismatch", func(r *ReportData) { r.PerGroupCounts = []int64{7, 4} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := base()
			tt.mutate(&r)
			if err := Report(r); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	// Negative offered counts skip the bound checks.
	r := base()
	r.OfferedRequests, r.OfferedUpdates = -1, -1
	r.Requests = 10
	if err := Report(r); err != nil {
		t.Fatalf("skip-bounds report rejected: %v", err)
	}
}

func TestStatVector(t *testing.T) {
	if err := StatVector("rtt", []float64{1, 2, 3}, 3); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	if err := StatVector("rtt", []float64{1, 2, 3}, 0); err != nil {
		t.Fatalf("wantDim 0 must skip the dimension check: %v", err)
	}
	bad := []struct {
		name    string
		v       []float64
		wantDim int
	}{
		{"empty", nil, 0},
		{"wrong dim", []float64{1, 2}, 3},
		{"NaN", []float64{1, nan()}, 2},
		{"Inf", []float64{inf(), 1}, 2},
		{"negative", []float64{1, -0.5}, 2},
	}
	for _, tc := range bad {
		err := StatVector("rtt", tc.v, tc.wantDim)
		if err == nil {
			t.Fatalf("%s vector accepted", tc.name)
		}
		var ve *Error
		if !errors.As(err, &ve) || ve.Stage != "ingest" {
			t.Fatalf("%s: error %v is not a verify ingest error", tc.name, err)
		}
	}
}

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }

func TestDigestStability(t *testing.T) {
	mk := func() uint64 {
		d := NewDigest()
		d.Int(3).Ints([]int{1, 2, 3}).Floats([]float64{1.5, -2.25}).String("scheme")
		return d.Sum64()
	}
	if mk() != mk() {
		t.Fatal("digest not deterministic")
	}
	d1 := NewDigest().Ints([]int{1, 2}).Sum64()
	d2 := NewDigest().Ints([]int{2, 1}).Sum64()
	if d1 == d2 {
		t.Fatal("digest ignores order")
	}
	// Length prefixes keep [1],[2] distinct from [1,2],[].
	a := NewDigest().Ints([]int{1}).Ints([]int{2}).Sum64()
	b := NewDigest().Ints([]int{1, 2}).Ints(nil).Sum64()
	if a == b {
		t.Fatal("digest concatenation ambiguity")
	}
	// NaN payloads collapse to one canonical value.
	n1 := NewDigest().Float64(nan()).Sum64()
	n2 := NewDigest().Float64(nan()).Sum64()
	if n1 != n2 {
		t.Fatal("NaN digests differ")
	}
}

// pickSeeds is a cluster.Seeder returning fixed indices.
type pickSeeds struct {
	indices []int
}

func (p pickSeeds) Seed(cluster.Matrix, int, *simrand.Source) ([]int, error) {
	return p.indices, nil
}

func TestCentersAreMeansCatchesKMeansRepair(t *testing.T) {
	// End-to-end regression for the stale-centers K-means bug: this input
	// empties cluster 0 on the final reassignment round, forcing the
	// post-loop empty-cluster repair to steal a point. If K-means ever
	// again skips recomputing the donor's mean after that repair (the
	// pre-fix behavior), this invariant check is what catches it.
	points := []cluster.Vector{{0}, {10}, {-1}, {-3}, {21}, {10.6}, {10.7}}
	res, err := cluster.KMeans(points, 3, pickSeeds{[]int{0, 2, 4}}, cluster.Options{MaxIterations: 1}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := CentersAreMeans(points, res.Assignments, res.Centers); err != nil {
		t.Fatalf("K-means emitted stale centers: %v", err)
	}
	if err := Partition(res.Assignments, res.K()); err != nil {
		t.Fatalf("K-means emitted a malformed partition: %v", err)
	}
}
