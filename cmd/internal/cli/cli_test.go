package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	ecg "edgecachegroups"
)

// TestClampLandmarks checks that formation shrinks -l and -m to fit the
// cache count (landmark.Fit) instead of failing, for both schemes the
// daemon and the batch CLI form with.
func TestClampLandmarks(t *testing.T) {
	tests := []struct {
		l, m, n int
		wantL   int
	}{
		{25, 4, 500, 25},
		{25, 4, 40, 11},
		{25, 0, 100, 25},
		{1, 1, 1, 2},
	}
	for _, name := range []string{"sl", "sdsl"} {
		for _, tt := range tests {
			s := &Scheme{Name: name, Theta: 1, L: tt.l, M: tt.m}
			cfg, err := s.Config(tt.n, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, plan, err := Form(nil, tt.n, 1, cfg, ecg.NewRand(1))
			if err != nil {
				t.Errorf("%s l=%d m=%d caches=%d: %v", name, tt.l, tt.m, tt.n, err)
				continue
			}
			if len(plan.Landmarks) != tt.wantL || len(plan.Assignments) != tt.n {
				t.Errorf("%s l=%d m=%d caches=%d: %d landmarks and %d assignments, want %d and %d",
					name, tt.l, tt.m, tt.n, len(plan.Landmarks), len(plan.Assignments), tt.wantL, tt.n)
			}
		}
	}
}

// TestSchemeConfig checks the scheme names each binary accepts: the
// euclidean scheme needs an embedding dimension, and every config is
// verified.
func TestSchemeConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dim    int
		wantOK bool
	}{
		{"sl", 0, true},
		{"SDSL", 0, true},
		{"euclidean", 5, true},
		{"euclidean", 0, false},
		{"bogus", 5, false},
		{"bogus", 0, false},
	} {
		s := &Scheme{Name: tc.name, Theta: 1, L: 5, M: 2, Dim: tc.dim}
		cfg, err := s.Config(40, nil)
		if (err == nil) != tc.wantOK {
			t.Errorf("scheme %q dim %d: err = %v, want ok=%v", tc.name, tc.dim, err, tc.wantOK)
		}
		if err == nil && !cfg.Verify {
			t.Errorf("scheme %q: config does not verify its plans", tc.name)
		}
	}
}

// TestObsFlags checks that the endpoint starts only when -obs-addr is
// set, and that it announces its address.
func TestObsFlags(t *testing.T) {
	for _, args := range [][]string{nil, {"-obs-addr", "127.0.0.1:0"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := ObsFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		o, stop, err := f.Start(&buf)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		if on := args != nil; (o != nil) != on || strings.Contains(buf.String(), "/metrics") != on {
			t.Errorf("%v: sink %v, announcement %q", args, o != nil, buf.String())
		}
	}
}
