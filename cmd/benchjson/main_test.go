package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: edgecachegroups
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKMeansFlatExhaustive-8	     100	   6513225 ns/op	  123568 B/op	      91 allocs/op
BenchmarkKMeansFlatExhaustive-8	     100	   6313225 ns/op	  123568 B/op	      91 allocs/op
BenchmarkKMeansFlatPruned-8	     100	   3206612 ns/op	  140848 B/op	     474 allocs/op
BenchmarkSimulatorThroughput-8	      10	  52000000 ns/op	  900000 B/op	    1200 allocs/op	     24000 requests/op
PASS
ok  	edgecachegroups	0.085s
`

func TestParseAveragesRepeatedRuns(t *testing.T) {
	benches, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("got %d benches, want 3", len(benches))
	}
	km := benches[0]
	if km.Name != "BenchmarkKMeansFlatExhaustive" {
		t.Fatalf("first bench %q, want BenchmarkKMeansFlatExhaustive", km.Name)
	}
	if km.Runs != 2 || km.Iterations != 200 {
		t.Fatalf("runs/iterations = %d/%d, want 2/200", km.Runs, km.Iterations)
	}
	if want := (6513225.0 + 6313225.0) / 2; math.Abs(km.NsPerOp-want) > 1e-6 {
		t.Fatalf("ns/op = %v, want mean %v", km.NsPerOp, want)
	}
	if km.AllocsPerOp != 91 {
		t.Fatalf("allocs/op = %v, want 91", km.AllocsPerOp)
	}
	sim := benches[2]
	if sim.Extra["requests/op"] != 24000 {
		t.Fatalf("custom metric lost: %+v", sim.Extra)
	}
}

// TestParseKeepsNsPerOpSpread checks that the min and max ns/op of the
// repeated runs sit beside their mean, and that a single run's spread is
// the run itself.
func TestParseKeepsNsPerOpSpread(t *testing.T) {
	benches, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		i        int
		min, max float64
	}{
		{0, 6313225, 6513225},
		{1, 3206612, 3206612},
		{2, 52000000, 52000000},
	} {
		b := benches[tc.i]
		if b.MinNsPerOp != tc.min || b.MaxNsPerOp != tc.max {
			t.Errorf("%s: ns/op spread [%v, %v], want [%v, %v]", b.Name, b.MinNsPerOp, b.MaxNsPerOp, tc.min, tc.max)
		}
	}
	var buf bytes.Buffer
	if err := run(strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"min_ns_per_op": 6313225`, `"max_ns_per_op": 6513225`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("baseline JSON lacks %s:\n%s", field, buf.String())
		}
	}
}

// TestSpeedupPairsExhaustiveAndPruned pins the algorithmic pairing: a
// FooExhaustive baseline is compared against its FooPruned variant, the
// speedup that remains meaningful on a single-CPU host. Other variants of
// the same prefix are not paired.
func TestSpeedupPairsExhaustiveAndPruned(t *testing.T) {
	const pruned = `BenchmarkKMeansFlatExhaustive-8	1	5000000000 ns/op	377600000 distevals/op
BenchmarkKMeansFlatPruned-8	2	500000000 ns/op	27000000 distevals/op
BenchmarkKMeansFlatOther-8	1	1000000000 ns/op	15000000 distevals/op
`
	benches, err := parse(strings.NewReader(pruned))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(benches)
	if len(sp) != 1 {
		t.Fatalf("got %d speedups, want 1: %+v", len(sp), sp)
	}
	pr := sp[0]
	if pr.Name != "KMeansFlatxPruned" || pr.Serial != "BenchmarkKMeansFlatExhaustive" || pr.Parallel != "BenchmarkKMeansFlatPruned" {
		t.Fatalf("wrong Pruned pair: %+v", sp)
	}
	if want := 10.0; math.Abs(pr.Factor-want) > 1e-9 {
		t.Fatalf("Pruned factor = %v, want %v", pr.Factor, want)
	}
}

func TestRunEmitsValidBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(buf.Bytes(), &base); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if base.NumCPU < 1 || base.GoVersion == "" {
		t.Fatalf("missing host info: %+v", base)
	}
	if len(base.Benchmarks) != 3 || len(base.Speedups) != 1 {
		t.Fatalf("unexpected content: %d benches, %d speedups", len(base.Benchmarks), len(base.Speedups))
	}
	if sp := base.Speedups[0]; sp.Name != "KMeansFlatxPruned" || math.Abs(sp.Factor-6413225.0/3206612.0) > 1e-9 {
		t.Fatalf("wrong speedup: %+v", sp)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader("no benchmarks here\n"), &buf); err == nil {
		t.Fatal("want error for input without benchmark lines")
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":      "BenchmarkFoo",
		"BenchmarkFoo":        "BenchmarkFoo",
		"BenchmarkFoo-bar":    "BenchmarkFoo-bar",
		"BenchmarkKMeansPar1": "BenchmarkKMeansPar1",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseOutputIsIterationOrderIndependent is the regression test for
// the maporder fix in parse: units are iterated in sorted order, so the
// serialized output is byte-identical across runs even though the
// per-unit sums live in a map. Multiple custom units force the Extra
// map through more than one iteration.
func TestParseOutputIsIterationOrderIndependent(t *testing.T) {
	const multiUnit = `BenchmarkSweep-8	10	50 ns/op	7 B/op	1 allocs/op	3 zeta/op	9 alpha/op	5 mid/op
`
	var first []byte
	for i := 0; i < 20; i++ {
		benches, err := parse(strings.NewReader(multiUnit))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(benches)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
			continue
		}
		if !bytes.Equal(out, first) {
			t.Fatalf("run %d produced different bytes:\n%s\nvs\n%s", i, out, first)
		}
	}
	var got []Bench
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}
	if got[0].NsPerOp != 50 || got[0].BytesPerOp != 7 || got[0].AllocsPerOp != 1 {
		t.Fatalf("standard units misparsed: %+v", got[0])
	}
	want := map[string]float64{"zeta/op": 3, "alpha/op": 9, "mid/op": 5}
	for unit, v := range want {
		if got[0].Extra[unit] != v {
			t.Fatalf("extra[%s] = %v, want %v", unit, got[0].Extra[unit], v)
		}
	}
}
