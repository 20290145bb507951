package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edgecachegroups/internal/verify"
)

func TestCheckRTT(t *testing.T) {
	e := &Engine{dim: 3}
	if err := e.checkRTT(CacheStat{Cache: 7, RTTMS: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	bad := []struct {
		name string
		v    []float64
	}{
		{"empty", nil},
		{"wrong dim", []float64{1, 2}},
		{"NaN", []float64{1, math.NaN(), 2}},
		{"Inf", []float64{math.Inf(1), 1, 2}},
		{"negative", []float64{1, -0.5, 2}},
	}
	for _, tc := range bad {
		err := e.checkRTT(CacheStat{Cache: 7, RTTMS: tc.v})
		if err == nil {
			t.Fatalf("%s vector accepted", tc.name)
		}
		var ve *verify.Error
		if !errors.As(err, &ve) || ve.Stage != "ingest" {
			t.Fatalf("%s: error %v is not a verify ingest error", tc.name, err)
		}
		if !strings.Contains(err.Error(), "cache 7 rttMS") {
			t.Fatalf("%s: error %q does not name the cache", tc.name, err)
		}
	}
}
