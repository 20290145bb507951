package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestRunTextOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-caches", "60", "-k", "6", "-scheme", "sl"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scheme:", "GICost:", "group sizes:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-caches", "60", "-k", "6", "-scheme", "sdsl", "-theta", "2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out.K != 6 || out.Caches != 60 {
		t.Fatalf("output = %+v", out)
	}
	if len(out.Assignments) != 60 {
		t.Fatalf("assignments = %d", len(out.Assignments))
	}
	if out.Scheme != "SDSL(theta=2)" {
		t.Fatalf("scheme = %q", out.Scheme)
	}
	total := 0
	for _, s := range out.GroupSizes {
		total += s
	}
	if total != 60 {
		t.Fatalf("group sizes sum to %d", total)
	}
}

func TestRunAllSelectors(t *testing.T) {
	for _, sel := range []string{"greedy", "random", "min-dist"} {
		var buf bytes.Buffer
		if err := run([]string{"-caches", "40", "-k", "4", "-landmarks", sel}, &buf); err != nil {
			t.Fatalf("selector %s: %v", sel, err)
		}
	}
}

func TestRunEuclideanScheme(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-caches", "40", "-k", "4", "-scheme", "euclidean", "-dim", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributedJSON(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-caches", "40", "-k", "4", "-l", "5", "-m", "2",
		"-distributed", "-loss", "0.2", "-dup", "0.15", "-delay", "0.2", "-crash", "3",
		"-retries", "6", "-json"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !out.Distributed {
		t.Fatal("distributed flag not reported")
	}
	if out.MessagesSent <= 0 {
		t.Fatalf("no messages counted: %+v", out)
	}
	if out.Unresponsive < 3 {
		t.Fatalf("crashed caches not reported unresponsive: %+v", out)
	}
	assigned := 0
	for _, g := range out.Assignments {
		if g >= 0 {
			assigned++
		}
	}
	if assigned+out.Unresponsive != 40 {
		t.Fatalf("conservation: %d assigned + %d unresponsive != 40", assigned, out.Unresponsive)
	}
	total := 0
	for _, s := range out.GroupSizes {
		total += s
	}
	if total != assigned {
		t.Fatalf("group sizes sum to %d, want %d", total, assigned)
	}
	if out.Checksum == "" || out.Iterations < 1 {
		t.Fatalf("distributed output lacks the plan's checksum or k-means iterations: %+v", out)
	}

	// Same seed, same faults — bit-identical output.
	var buf2 bytes.Buffer
	if err := run(args, &buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("distributed run not reproducible for a fixed seed")
	}
}

func TestRunDistributedText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-caches", "40", "-k", "4", "-l", "5", "-m", "2",
		"-scheme", "sl", "-distributed", "-loss", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sl-distributed", "k-means:", "checksum:", "messages:", "retries", "coverage:", "degraded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scheme", "bogus"}, &buf); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := run([]string{"-landmarks", "bogus"}, &buf); err == nil {
		t.Fatal("unknown selector accepted")
	}
	if err := run([]string{"-caches", "10", "-k", "50"}, &buf); err == nil {
		t.Fatal("k > caches accepted")
	}
	if err := run([]string{"-caches", "20", "-k", "2", "-distributed", "-scheme", "euclidean"}, &buf); err == nil {
		t.Fatal("euclidean distributed mode accepted")
	}
	for _, sel := range []string{"random", "min-dist"} {
		if err := run([]string{"-caches", "20", "-k", "2", "-distributed", "-landmarks", sel}, &buf); err == nil {
			t.Fatalf("-landmarks %s accepted in distributed mode, which always selects greedily", sel)
		}
	}
	if err := run([]string{"-caches", "20", "-k", "2", "-distributed", "-crash", "20"}, &buf); err == nil {
		t.Fatal("crash count >= caches accepted")
	}
	if err := run([]string{"-caches", "20", "-k", "2", "-distributed", "-loss", "1"}, &buf); err == nil {
		t.Fatal("loss=1 accepted")
	}
}

// TestClampLandmarks checks that -l and -m larger than the network allows
// are shrunk to fit the cache count (landmark.Fit) instead of failing
// formation.
func TestClampLandmarks(t *testing.T) {
	tests := []struct {
		l, m, n int
	}{
		{25, 4, 500},
		{25, 4, 40},
		{25, 0, 100},
		{1, 1, 1},
	}
	for _, tt := range tests {
		var buf bytes.Buffer
		args := []string{"-caches", strconv.Itoa(tt.n), "-k", "1",
			"-l", strconv.Itoa(tt.l), "-m", strconv.Itoa(tt.m), "-json"}
		if err := run(args, &buf); err != nil {
			t.Errorf("run(-l %d -m %d -caches %d): %v", tt.l, tt.m, tt.n, err)
			continue
		}
		var out output
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if len(out.Assignments) != tt.n {
			t.Errorf("-l %d -m %d -caches %d: %d assignments", tt.l, tt.m, tt.n, len(out.Assignments))
		}
	}
}
