package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestRunGolden pins groupform's whole stdout, as text and as -json, for
// each scheme, each landmark selector, -suggest-k and a -distributed run
// with loss, duplication and crashed caches. Any change to a plan, its
// checksum or its report moves a digest here.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		text, json string
	}{
		{"sl", []string{"-scheme", "sl"}, "3078d78a8ea997a5", "16bfc5bf4d3db27a"},
		{"sdsl-theta2", []string{"-scheme", "sdsl", "-theta", "2"}, "e5a3053ea0e13578", "89b4fc4de9ce57fd"},
		{"euclidean", []string{"-scheme", "euclidean", "-dim", "3"}, "c5c45e48bf8775c0", "0cd2c65fe44c5e88"},
		{"greedy", []string{"-landmarks", "greedy"}, "64be98d9beaeee2c", "f0f4045462f7c338"},
		{"random", []string{"-landmarks", "random"}, "e3c40f2ff3eae049", "74b88fef8a7917a9"},
		{"min-dist", []string{"-landmarks", "min-dist"}, "9c901c5d8541c92b", "1ea45a116be92177"},
		{"suggest-k", []string{"-suggest-k"}, "1dc27121d4c0b153", "b90d97fb49908b54"},
		{"distributed", []string{"-l", "5", "-m", "2", "-distributed",
			"-loss", "0.2", "-dup", "0.15", "-crash", "3", "-retries", "6"}, "d43877845aeee681", "534684d410ee7e5e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-caches", "50", "-k", "5"}, tc.args...)
			for _, mode := range []struct {
				args []string
				want string
			}{
				{args, tc.text},
				{append(args[:len(args):len(args)], "-json"), tc.json},
			} {
				var buf bytes.Buffer
				if err := run(mode.args, &buf); err != nil {
					t.Fatal(err)
				}
				if got := digest(buf.Bytes()); got != mode.want {
					t.Errorf("%v: stdout digest %s, want %s\n%s", mode.args, got, mode.want, buf.String())
				}
			}
		})
	}
}

// digest is a short fingerprint of a command's output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
