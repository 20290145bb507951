package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/verify"
)

func TestSnapshotRoundTrip(t *testing.T) {
	plan := testPlan(8)
	plan.Iterations = 4
	plan.Scheme, plan.Theta = "SDSL(theta=0.5)", 0.5
	ep := &Epoch{Seq: 7, Plan: plan, Checksum: plan.Checksum(), Updated: time.Now()}
	path := filepath.Join(t.TempDir(), "plan.json")

	if err := SaveSnapshot(path, ep); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if got.Seq != 7 {
		t.Fatalf("restored epoch %d, want 7", got.Seq)
	}
	if got.Checksum != ep.Checksum {
		t.Fatalf("restored checksum %016x, want %016x", got.Checksum, ep.Checksum)
	}
	q := got.Plan
	if q.Scheme != plan.Scheme || q.NumCaches() != plan.NumCaches() || q.NumGroups() != plan.NumGroups() {
		t.Fatalf("restored plan shape %s/%d/%d, want %s/%d/%d",
			q.Scheme, q.NumCaches(), q.NumGroups(), plan.Scheme, plan.NumCaches(), plan.NumGroups())
	}
	if q.Algorithm != plan.Algorithm || q.Theta != plan.Theta || q.Iterations != plan.Iterations || q.Converged != plan.Converged {
		t.Fatalf("restored algorithm metadata %v/%v/%d/%v differs", q.Algorithm, q.Theta, q.Iterations, q.Converged)
	}
	if len(q.Landmarks) != 2 || !q.Landmarks[0].IsOrigin() || q.Landmarks[1].IsOrigin() {
		t.Fatalf("landmarks did not round-trip: %v", q.Landmarks)
	}
	for i := range plan.Assignments {
		if q.Assignments[i] != plan.Assignments[i] {
			t.Fatalf("assignment %d = %d, want %d", i, q.Assignments[i], plan.Assignments[i])
		}
	}
	if err := q.Verify(nil); err != nil {
		t.Fatalf("restored plan fails verification: %v", err)
	}
	if q.Checksum() != plan.Checksum() {
		t.Fatalf("restored plan digests to %016x, want %016x", q.Checksum(), plan.Checksum())
	}
}

func TestSnapshotRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestSnapshotRejectsChecksumMismatch(t *testing.T) {
	plan := testPlan(8)
	ep := &Epoch{Seq: 1, Plan: plan, Checksum: plan.Checksum(), Updated: time.Now()}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SaveSnapshot(path, ep); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "\"planChecksum\":\"" + checksumHex(ep.Checksum) + "\""
	tampered := strings.Replace(string(data), want, "\"planChecksum\":\"deadbeefdeadbeef\"", 1)
	if tampered == string(data) {
		t.Fatalf("checksum field %q not found in snapshot", want)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("tampered snapshot accepted (err=%v)", err)
	}
}

// TestSnapshotRejectsVersionSkew: a file of another format version never
// loads, including a version-1 file, which predates theta and would
// reload an SDSL plan as SL.
func TestSnapshotRejectsVersionSkew(t *testing.T) {
	plan := testPlan(8)
	ep := &Epoch{Seq: 1, Plan: plan, Checksum: plan.Checksum(), Updated: time.Now()}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SaveSnapshot(path, ep); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	data, _ := os.ReadFile(path)
	current := fmt.Sprintf("\"version\":%d", snapshotVersion)
	for _, v := range []int{1, 99} {
		skewed := strings.Replace(string(data), current, fmt.Sprintf("\"version\":%d", v), 1)
		if skewed == string(data) {
			t.Fatalf("version field %q not found in snapshot", current)
		}
		if err := os.WriteFile(path, []byte(skewed), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-%d snapshot accepted (err=%v)", v, err)
		}
	}
}

// TestSnapshotRejectsStaleCenters: a snapshot whose recorded checksum
// matches its plan still never loads when the plan breaks an invariant
// Verify checks. Cache 0 of the two stale cases sits in group 1 while both
// centers are those of the formed plan; the file either carries an
// "edited" key, which LoadSnapshot ignores, or omits the algorithm, which
// reads as K-means. Each case is a committed FuzzLoadSnapshot seed.
func TestSnapshotRejectsStaleCenters(t *testing.T) {
	tests := []struct {
		seed  string
		stage string
	}{
		{"stale-centers-edited", "centers"},
		{"stale-centers-algorithm-omitted", "centers"},
		{"short-server-dist", "plan"},
	}
	for _, tt := range tests {
		t.Run(tt.seed, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plan.json")
			if err := os.WriteFile(path, readFuzzSeed(t, "FuzzLoadSnapshot", tt.seed), 0o600); err != nil {
				t.Fatal(err)
			}
			_, err := LoadSnapshot(path)
			var ve *verify.Error
			if !errors.As(err, &ve) || ve.Stage != tt.stage {
				t.Fatalf("LoadSnapshot error %v, want a verify error of stage %q", err, tt.stage)
			}
		})
	}
}

// readFuzzSeed returns the []byte value of a committed fuzz corpus entry.
func readFuzzSeed(t *testing.T, fuzzer, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzer, name))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
	if !ok || !ok2 {
		t.Fatalf("%s: not a one-value []byte corpus entry", name)
	}
	data, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

func TestSnapshotLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(8)
	ep := &Epoch{Seq: 1, Plan: plan, Checksum: plan.Checksum(), Updated: time.Now()}
	path := filepath.Join(dir, "plan.json")
	for i := 0; i < 3; i++ {
		if err := SaveSnapshot(path, ep); err != nil {
			t.Fatalf("SaveSnapshot %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "plan.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir holds %v, want exactly [plan.json]", names)
	}
}

// FuzzLoadSnapshot: whatever bytes sit at the snapshot path, LoadSnapshot
// either fails or returns a plan that passes Verify, digests to the
// checksum the file records, and boots an engine. The committed corpus
// holds a valid file, a version-1 file, a torn file, a checksum mismatch,
// a file without landmarks and the three invalid plans of
// TestSnapshotRejectsStaleCenters.
func FuzzLoadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		ep, err := LoadSnapshot(path)
		if err != nil {
			return
		}
		if err := ep.Plan.Verify(nil); err != nil {
			t.Fatalf("loaded plan fails verification: %v", err)
		}
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("loaded a file that does not decode: %v", err)
		}
		if got := checksumHex(ep.Plan.Checksum()); got != snap.Checksum || ep.Checksum != ep.Plan.Checksum() {
			t.Fatalf("loaded plan digests to %s (epoch records %016x), file records %s", got, ep.Checksum, snap.Checksum)
		}
		if _, err := NewEngine(Config{Plan: ep.Plan, Rand: simrand.New(1)}); err != nil {
			t.Fatalf("loaded plan does not boot an engine: %v", err)
		}
	})
}
