package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ecg "edgecachegroups"
	"edgecachegroups/internal/workload"
)

// writeTrace synthesizes a small trace directory for tests.
func writeTrace(t *testing.T, numCaches int) string {
	t.Helper()
	dir := t.TempDir()
	src := ecg.NewRand(77)
	params := ecg.DefaultCatalogParams()
	params.NumDocuments = 200
	catalog, err := ecg.NewCatalog(params, src.Split("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	tp := ecg.TraceParams{DurationSec: 40, RequestRatePerCache: 1, Similarity: 0.8}
	reqs, err := ecg.GenerateRequests(catalog, numCaches, tp, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := ecg.GenerateUpdates(catalog, 40, src.Split("ups"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
	}
	write("catalog.json", func(f *os.File) error { return workload.WriteCatalogJSON(f, catalog) })
	write("requests.jsonl", func(f *os.File) error { return workload.WriteRequestsJSONL(f, reqs) })
	write("updates.jsonl", func(f *os.File) error { return workload.WriteUpdatesJSONL(f, ups) })
	return dir
}

func TestRunSimulatesTrace(t *testing.T) {
	dir := writeTrace(t, 20)
	var buf bytes.Buffer
	if err := run([]string{"-trace", dir, "-k", "4", "-scheme", "sdsl"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace:", "plan:", "latency:", "hit mix:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "20 caches") {
		t.Fatalf("cache count not inferred:\n%s", out)
	}
}

func TestRunAllSchemes(t *testing.T) {
	dir := writeTrace(t, 15)
	for _, scheme := range []string{"sl", "sdsl", "euclidean"} {
		var buf bytes.Buffer
		if err := run([]string{"-trace", dir, "-k", "3", "-scheme", scheme}, &buf); err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
	}
}

func TestRunWithTopologyFile(t *testing.T) {
	dir := writeTrace(t, 15)
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	src := ecg.NewRand(1)
	g, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), src.Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ecg.WriteGraphJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	if err := run([]string{"-trace", dir, "-k", "3", "-topology", topoPath}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunWarmup(t *testing.T) {
	dir := writeTrace(t, 10)
	var buf bytes.Buffer
	if err := run([]string{"-trace", dir, "-k", "2", "-warmup", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("missing -trace accepted")
	}
	if err := run([]string{"-trace", t.TempDir()}, &buf); err == nil {
		t.Fatal("empty trace dir accepted")
	}
	dir := writeTrace(t, 10)
	if err := run([]string{"-trace", dir, "-scheme", "bogus"}, &buf); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := run([]string{"-trace", dir, "-topology", "/no/such/file"}, &buf); err == nil {
		t.Fatal("missing topology file accepted")
	}
	if err := run([]string{"-trace", dir, "-k", "9999"}, &buf); err == nil {
		t.Fatal("oversized k accepted")
	}
}

func TestRunPolicyAndBeaconFlags(t *testing.T) {
	dir := writeTrace(t, 12)
	var buf bytes.Buffer
	if err := run([]string{"-trace", dir, "-k", "3", "-policy", "lru", "-beacons", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", dir, "-k", "3", "-policy", "bogus"}, &buf); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRunGolden pins cachesim's whole stdout over one 40-cache trace for
// the utility policy and for LRU with beacon points, each over a generated
// topology and over a -topology file.
func TestRunGolden(t *testing.T) {
	dir := writeTrace(t, 40)
	topoPath := filepath.Join(t.TempDir(), "topo.json")
	g, err := ecg.GenerateTransitStub(ecg.DefaultTransitStubParams(), ecg.NewRand(3).Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ecg.WriteGraphJSON(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"utility", nil, "30d023d0ead0b23b"},
		{"utility-topology", []string{"-topology", topoPath}, "b27f49194c2c2e45"},
		{"lru-beacons", []string{"-policy", "lru", "-beacons", "2"}, "7993aaabdc41a247"},
		{"lru-beacons-topology", []string{"-policy", "lru", "-beacons", "2", "-topology", topoPath}, "467a7ef3b2de54ea"},
		{"euclidean", []string{"-scheme", "euclidean"}, "75dfce19ea5ec8e5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			args := append([]string{"-trace", dir, "-k", "4"}, tc.args...)
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("stdout digest %s, want %s\n%s", got, tc.want, buf.String())
			}
		})
	}
}

// TestRunRejectsSimFlagsFirst: a bad simulator flag must fail before any
// formation work, so it is reported even when the topology file the
// formation would read does not exist.
func TestRunRejectsSimFlagsFirst(t *testing.T) {
	dir := writeTrace(t, 10)
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-warmup", "NaN"}, "WarmupSec"},
		{[]string{"-beacons", "-1"}, "BeaconsPerGroup"},
		{[]string{"-policy", "bogus"}, "unknown policy"},
	} {
		var buf bytes.Buffer
		args := append([]string{"-trace", dir, "-k", "2", "-topology", "/no/such/file"}, tc.flags...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want the %s error", tc.flags, err, tc.want)
		}
	}
}
