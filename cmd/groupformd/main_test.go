package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	ecg "edgecachegroups"
)

// boot runs the daemon with the given extra flags on an ephemeral port and
// returns the live server (closed on test cleanup).
func boot(t *testing.T, buf *bytes.Buffer, extra ...string) *ecg.ServeServer {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-caches", "40", "-k", "4", "-l", "5", "-m", "2",
		"-interval", "1h",
	}, extra...)
	ready := make(chan *ecg.ServeServer, 1)
	if err := run(args, buf, ready); err != nil {
		t.Fatalf("run: %v", err)
	}
	srv := <-ready
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestDaemonServesFormedPlan(t *testing.T) {
	var buf bytes.Buffer
	srv := boot(t, &buf, "-scheme", "sl")
	base := "http://" + srv.Addr()

	var plan struct {
		Epoch  uint64 `json:"epoch"`
		Caches int    `json:"caches"`
		K      int    `json:"k"`
		Scheme string `json:"scheme"`
	}
	if code := get(t, base+"/plan", &plan); code != http.StatusOK {
		t.Fatalf("/plan status %d", code)
	}
	if plan.Epoch != 1 || plan.Caches != 40 || plan.K != 4 || plan.Scheme != "SL" {
		t.Fatalf("plan = %+v", plan)
	}

	var a struct {
		Group int `json:"group"`
	}
	if code := get(t, base+"/assign?cache=0", &a); code != http.StatusOK {
		t.Fatalf("/assign status %d", code)
	}
	if a.Group < 0 || a.Group >= 4 {
		t.Fatalf("assigned group %d out of range", a.Group)
	}

	var h struct {
		Status string `json:"status"`
	}
	if code := get(t, base+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/healthz = %d %q", code, h.Status)
	}
	if code := get(t, base+"/metrics", nil); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(buf.String(), "formed initial plan") {
		t.Fatalf("boot log missing formation line:\n%s", buf.String())
	}
}

func TestDaemonIngestEndpoint(t *testing.T) {
	var buf bytes.Buffer
	srv := boot(t, &buf)
	base := "http://" + srv.Addr()

	dim := srv.Engine().FeatureDim()
	rtt := make([]float64, dim)
	for d := range rtt {
		rtt[d] = 10 + float64(d)
	}
	body, _ := json.Marshal(map[string]any{
		"stats": []map[string]any{{"cache": 0, "rttMS": rtt, "requests": 3}},
	})
	resp, err := http.Post(base+"/stats", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	if srv.Engine().Health().StatReports != 1 {
		t.Fatalf("report not recorded: total %d", srv.Engine().Health().StatReports)
	}
}

func TestDaemonSnapshotRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	var buf bytes.Buffer
	srv := boot(t, &buf, "-snapshot", path)
	first := srv.Engine().Epoch()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart with a different formation seed: the snapshot must win, so
	// the plan checksum survives and the epoch sequence keeps rising.
	var buf2 bytes.Buffer
	srv2 := boot(t, &buf2, "-snapshot", path, "-seed", "999")
	second := srv2.Engine().Epoch()
	if second.Checksum != first.Checksum {
		t.Fatalf("restart reformed instead of restoring: checksum %016x -> %016x", first.Checksum, second.Checksum)
	}
	if second.Seq != first.Seq+1 {
		t.Fatalf("epoch sequence reset: %d -> %d", first.Seq, second.Seq)
	}
	if !strings.Contains(buf2.String(), "restored plan epoch") {
		t.Fatalf("boot log missing restore line:\n%s", buf2.String())
	}
}

func TestDaemonErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		why  string
	}{
		{[]string{"-scheme", "euclidean"}, "euclidean scheme accepted (embedded representation is not servable)"},
		{[]string{"-scheme", "bogus"}, "unknown scheme accepted"},
		{[]string{"-caches", "10", "-k", "50"}, "k > caches accepted"},
		{[]string{"-sample", "2"}, "sample fraction > 1 accepted"},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf, nil); err == nil {
			t.Fatal(tc.why)
		}
		assertNoFormation(t, tc.args, buf.String())
	}
}

// assertNoFormation fails when a rejected boot got as far as forming the
// initial plan: bad flags must fail before the formation they would
// otherwise wait for.
func assertNoFormation(t *testing.T, args []string, out string) {
	t.Helper()
	if strings.Contains(out, "formed initial plan") {
		t.Errorf("%v: rejected only after forming the initial plan:\n%s", args, out)
	}
}

// TestDaemonRejectsNonFiniteFlags: flag.Float64 parses "NaN" and "Inf",
// and a NaN drift threshold would boot a daemon that never detects
// drift, so every non-finite tuning flag must fail the boot.
func TestDaemonRejectsNonFiniteFlags(t *testing.T) {
	for _, flags := range [][]string{
		{"-drift", "NaN"},
		{"-drift", "+Inf"},
		{"-sample", "NaN"},
		{"-recluster-frac", "NaN"},
		{"-recluster-frac", "Inf"},
		{"-theta", "NaN"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-caches", "40", "-k", "4", "-l", "5", "-m", "2"}, flags...)
		var buf bytes.Buffer
		ready := make(chan *ecg.ServeServer, 1)
		if err := run(args, &buf, ready); err == nil {
			(<-ready).Close()
			t.Errorf("%v accepted", flags)
		}
		assertNoFormation(t, flags, buf.String())
	}
}

// TestClampLandmarks checks that the boot formation shrinks -l and -m to
// fit the cache count (landmark.Fit) instead of failing.
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
	for _, tt := range tests {
		args := []string{"-addr", "127.0.0.1:0", "-interval", "1h", "-scheme", "sl",
			"-caches", strconv.Itoa(tt.n), "-k", "1",
			"-l", strconv.Itoa(tt.l), "-m", strconv.Itoa(tt.m)}
		ready := make(chan *ecg.ServeServer, 1)
		var buf bytes.Buffer
		if err := run(args, &buf, ready); err != nil {
			t.Errorf("boot(l=%d, m=%d, caches=%d): %v", tt.l, tt.m, tt.n, err)
			continue
		}
		srv := <-ready
		plan := srv.Engine().Epoch().Plan
		srv.Close()
		if len(plan.Landmarks) != tt.wantL {
			t.Errorf("boot(l=%d, m=%d, caches=%d): %d landmarks, want %d",
				tt.l, tt.m, tt.n, len(plan.Landmarks), tt.wantL)
		}
	}
}

// bootChecksum boots the daemon on the given formation flags and returns
// the checksum of its boot epoch's plan.
func bootChecksum(t *testing.T, flags ...string) string {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-interval", "1h"}, flags...)
	ready := make(chan *ecg.ServeServer, 1)
	var buf bytes.Buffer
	if err := run(args, &buf, ready); err != nil {
		t.Fatalf("run %v: %v", flags, err)
	}
	srv := <-ready
	defer srv.Close()
	return fmt.Sprintf("%016x", srv.Engine().Epoch().Checksum)
}

// TestBootChecksumGolden pins the checksum of the plan the daemon forms
// at boot for each scheme it serves.
func TestBootChecksumGolden(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-caches", "50", "-k", "5", "-scheme", "sl"}, "fd1b4952f211b2d9"},
		{[]string{"-caches", "50", "-k", "5", "-scheme", "sdsl", "-theta", "2"}, "8e774fa15fe4a4d4"},
		{[]string{"-caches", "200", "-k", "20", "-seed", "1"}, "50dc14ac26f25a85"},
	} {
		if got := bootChecksum(t, tc.flags...); got != tc.want {
			t.Errorf("%v: boot plan checksum %s, want %s", tc.flags, got, tc.want)
		}
	}
}

// TestBootPlanMatchesGroupform checks that the daemon boots on the plan
// the batch CLI forms: for the same flags, groupform -json reports the
// boot epoch's checksum as its planChecksum.
func TestBootPlanMatchesGroupform(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, flags := range [][]string{
		{"-caches", "200", "-k", "20", "-seed", "1"},
		{"-caches", "50", "-k", "5", "-scheme", "sl", "-l", "7", "-m", "3", "-seed", "4"},
	} {
		out, err := exec.Command(gobin, append([]string{"run", "../groupform", "-json"}, flags...)...).Output()
		if err != nil {
			t.Fatalf("groupform %v: %v", flags, err)
		}
		var batch struct {
			Checksum string `json:"planChecksum"`
		}
		if err := json.Unmarshal(out, &batch); err != nil {
			t.Fatalf("groupform %v: %v", flags, err)
		}
		if got := bootChecksum(t, flags...); got != batch.Checksum {
			t.Errorf("%v: daemon boots on plan %s, groupform forms %s", flags, got, batch.Checksum)
		}
	}
}
