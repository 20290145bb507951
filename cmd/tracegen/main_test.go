package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgecachegroups/internal/workload"
)

func TestRunWritesTraceFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-caches", "8", "-duration", "30", "-docs", "100", "-out", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("no summary line:\n%s", buf.String())
	}

	// Catalog parses back.
	cf, err := os.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	cat, err := workload.ReadCatalogJSON(cf, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumDocuments() != 100 {
		t.Fatalf("catalog docs = %d", cat.NumDocuments())
	}

	// Requests parse back and reference valid docs/caches.
	rf, err := os.Open(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	reqs, err := workload.ReadRequestsJSONL(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests written")
	}
	for _, r := range reqs {
		if int(r.Cache) < 0 || int(r.Cache) >= 8 {
			t.Fatalf("bad cache %d", r.Cache)
		}
		if int(r.Doc) < 0 || int(r.Doc) >= 100 {
			t.Fatalf("bad doc %d", r.Doc)
		}
	}

	uf, err := os.Open(filepath.Join(dir, "updates.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer uf.Close()
	if _, err := workload.ReadUpdatesJSONL(uf); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-caches", "0"}, &buf); err == nil {
		t.Fatal("zero caches accepted")
	}
	if err := run([]string{"-docs", "0"}, &buf); err == nil {
		t.Fatal("zero docs accepted")
	}
	if err := run([]string{"-similarity", "2"}, &buf); err == nil {
		t.Fatal("bad similarity accepted")
	}
	// NaN parameters must fail before generation starts: a NaN duration
	// never ends the arrival loop.
	for _, flag := range []string{"-duration", "-rate", "-similarity"} {
		err := run([]string{flag, "NaN", "-caches", "2", "-out", t.TempDir()}, &buf)
		if err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Fatalf("%s NaN: err = %v, want a finiteness error", flag, err)
		}
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	args := []string{"-caches", "5", "-duration", "20", "-docs", "50", "-seed", "9"}
	if err := run(append(args, "-out", dir1), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", dir2), &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"catalog.json", "requests.jsonl", "updates.jsonl"} {
		a, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs across identical runs", name)
		}
	}
}

func TestRunSplitLogs(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-caches", "4", "-duration", "20", "-docs", "50", "-out", dir, "-split"}, &buf); err != nil {
		t.Fatal(err)
	}
	merged := 0
	for i := 0; i < 4; i++ {
		f, err := os.Open(filepath.Join(dir, "requests-"+strconvItoa(i)+".jsonl"))
		if err != nil {
			t.Fatalf("per-cache log %d missing: %v", i, err)
		}
		reqs, err := workload.ReadRequestsJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if int(r.Cache) != i {
				t.Fatalf("log %d contains request for cache %d", i, r.Cache)
			}
		}
		merged += len(reqs)
	}
	// Split logs must cover exactly the merged log.
	f, err := os.Open(filepath.Join(dir, "requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := workload.ReadRequestsJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if merged != len(all) {
		t.Fatalf("split logs hold %d requests, merged %d", merged, len(all))
	}
}

func strconvItoa(i int) string { return fmt.Sprintf("%d", i) }
