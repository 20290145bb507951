package netsim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// checkedReport is a Report with the bounds Run verifies it against.
type checkedReport struct {
	r                       *Report
	offeredReqs, offeredUps int64
	minDocKB, maxDocKB      float64
}

// validReport records 10 requests at two caches, one per group: cache 0
// has 4 local and 2 group hits, cache 1 one group hit, 2 origin fetches
// and 1 failover fetch.
func validReport() *checkedReport {
	r := newReport(2, 2, []int{0, 1})
	for _, rec := range []struct {
		c   topology.CacheIndex
		how outcome
		n   int
	}{
		{0, outcomeLocal, 4}, {0, outcomeGroup, 2},
		{1, outcomeGroup, 1}, {1, outcomeOrigin, 2}, {1, outcomeFailover, 1},
	} {
		for i := 0; i < rec.n; i++ {
			r.record(rec.c, 10, rec.how)
		}
	}
	r.Updates = 5
	r.OriginKB = 30
	r.InvalidationsOrigin = 4
	r.InvalidationsForwarded = 2
	return &checkedReport{r: r, offeredReqs: 12, offeredUps: 5, minDocKB: 5, maxDocKB: 20}
}

func (c *checkedReport) verify() error {
	return c.r.verifyWithBounds(c.offeredReqs, c.offeredUps, c.minDocKB, c.maxDocKB)
}

func TestReportChecks(t *testing.T) {
	if err := validReport().verify(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*checkedReport)
		want   string
	}{
		{"outcome sum mismatch", func(c *checkedReport) { c.r.LocalHits = 5 }, "outcome counts"},
		{"negative counter", func(c *checkedReport) { c.r.GroupHits = -1 }, "group hits counter is negative"},
		{"more recorded than offered", func(c *checkedReport) { c.offeredReqs = 9 }, "requests, only"},
		{"more updates than offered", func(c *checkedReport) { c.offeredUps = 4 }, "updates, only"},
		{"origin volume too small", func(c *checkedReport) { c.r.OriginKB = 10 }, "below"},
		{"origin volume too large", func(c *checkedReport) { c.r.OriginKB = 100 }, "exceeds 3 origin-served"},
		{"origin volume without fetches", func(c *checkedReport) {
			c.r.OriginFetches, c.r.FailoverFetches, c.r.LocalHits = 0, 0, 7
		}, "no origin-served"},
		{"invalidation fan-out too high", func(c *checkedReport) { c.r.InvalidationsOrigin = 11 }, "origin invalidations exceed"},
		{"forwarded without origin", func(c *checkedReport) { c.r.InvalidationsOrigin = 0 }, "forwarded invalidations without"},
		{"per-cache sum mismatch", func(c *checkedReport) { c.r.PerCache[1].Requests++ }, "per-cache counts"},
		{"per-group sum mismatch", func(c *checkedReport) { c.r.PerGroup[1].Requests++ }, "per-group counts"},
		{"negative per-group count", func(c *checkedReport) {
			c.r.PerGroup[0].Requests, c.r.PerGroup[1].Requests = -1, 11
		}, "per-group count 0 is negative"},
		{"overall aggregate mismatch", func(c *checkedReport) { c.r.Overall.Add(10) }, "overall aggregate"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := validReport()
			tt.mutate(c)
			err := c.verify()
			if err == nil {
				t.Fatal("expected error")
			}
			var ve *verify.Error
			if !errors.As(err, &ve) || ve.Stage != "report" {
				t.Fatalf("error %v is not a report-stage *verify.Error", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestTallyDropsInvalidSamples checks that the per-cache and per-group
// tallies drop the samples Overall drops, so their counts stay equal.
func TestTallyDropsInvalidSamples(t *testing.T) {
	r := newReport(1, 1, []int{0})
	for _, ms := range []float64{10, -1, math.NaN(), math.Inf(1), 4} {
		r.record(0, ms, outcomeLocal)
	}
	for name, tally := range map[string]LatencyTally{"cache": r.PerCache[0], "group": r.PerGroup[0].LatencyTally} {
		if tally.Requests != int64(r.Overall.Count()) || tally.latencySum != r.Overall.Sum() {
			t.Errorf("%s tally %+v, want Overall's %d requests summing to %v", name, tally, r.Overall.Count(), r.Overall.Sum())
		}
	}
}
