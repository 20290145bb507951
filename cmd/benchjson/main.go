// Command benchjson converts `go test -bench` output into the tracked
// benchmark-baseline JSON (BENCH_pipeline.json). It reads benchmark lines
// from stdin, averages repeated runs (-count=N) and keeps their min and
// max ns/op beside the mean, derives pruned-vs-exhaustive speedups for
// FooExhaustive/FooPruned pairs, and records the host's CPU count and
// GOMAXPROCS beside the numbers.
//
// Usage:
//
//	go test -run XXX -bench <pattern> -benchmem -count 5 . | go run ./cmd/benchjson > BENCH_pipeline.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is the aggregated result of one benchmark across repeated runs.
type Bench struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MinNsPerOp  float64            `json:"min_ns_per_op"`
	MaxNsPerOp  float64            `json:"max_ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Speedup compares a FooExhaustive benchmark (Serial) with its
// FooPruned variant (Parallel).
type Speedup struct {
	Name     string  `json:"name"`
	Serial   string  `json:"serial"`
	Parallel string  `json:"parallel"`
	Factor   float64 `json:"factor"`
}

// Baseline is the file layout of BENCH_pipeline.json.
type Baseline struct {
	GoVersion  string    `json:"go_version"`
	GoOS       string    `json:"goos"`
	GoArch     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Benchmarks []Bench   `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups,omitempty"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(r io.Reader, w io.Writer) error {
	benches, err := parse(r)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	base := Baseline{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: benches,
		Speedups:   speedups(benches),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(base)
}

// accum collects the repeated runs of one benchmark.
type accum struct {
	runs         int
	iterations   int64
	sums         map[string]float64
	minNs, maxNs float64 // spread of ns/op across the runs
}

// parse reads benchmark lines ("BenchmarkFoo-8  100  123 ns/op  4 B/op ...")
// and averages repeated runs of the same name, keeping the min and max
// ns/op of the runs.
func parse(r io.Reader) ([]Bench, error) {
	acc := make(map[string]*accum)
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		a := acc[name]
		if a == nil {
			a = &accum{sums: make(map[string]float64)}
			acc[name] = a
			order = append(order, name)
		}
		a.runs++
		a.iterations += iters
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q for %s", fields[i], name)
			}
			a.sums[fields[i+1]] += v
			if fields[i+1] == "ns/op" {
				if a.runs == 1 || v < a.minNs {
					a.minNs = v
				}
				a.maxNs = max(a.maxNs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Bench, 0, len(order))
	for _, name := range order {
		a := acc[name]
		b := Bench{Name: name, Runs: a.runs, Iterations: a.iterations, MinNsPerOp: a.minNs, MaxNsPerOp: a.maxNs}
		n := float64(a.runs)
		// Iterate units in sorted order so the emitted JSON (field values
		// and Extra insertion sequence) never depends on map order.
		units := make([]string, 0, len(a.sums))
		for unit := range a.sums {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			mean := a.sums[unit] / n
			switch unit {
			case "ns/op":
				b.NsPerOp = mean
			case "B/op":
				b.BytesPerOp = mean
			case "allocs/op":
				b.AllocsPerOp = mean
			default:
				if b.Extra == nil {
					b.Extra = make(map[string]float64)
				}
				b.Extra[unit] = mean
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// trimProcs strips the -GOMAXPROCS suffix go test appends to benchmark
// names ("BenchmarkFoo-8" -> "BenchmarkFoo").
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// speedups pairs each FooExhaustive benchmark with its FooPruned variant
// (KMeansFlatExhaustive/KMeansFlatPruned), where the win comes from
// bounds pruning rather than goroutines.
func speedups(benches []Bench) []Speedup {
	byName := make(map[string]Bench, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Speedup
	for _, baseline := range benches {
		prefix, ok := strings.CutSuffix(baseline.Name, "Exhaustive")
		if !ok {
			continue
		}
		pruned, ok := byName[prefix+"Pruned"]
		if !ok || pruned.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Name:     strings.TrimPrefix(prefix, "Benchmark") + "xPruned",
			Serial:   baseline.Name,
			Parallel: pruned.Name,
			Factor:   baseline.NsPerOp / pruned.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
