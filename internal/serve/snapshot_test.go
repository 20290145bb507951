package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgecachegroups/internal/simrand"
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

func TestSnapshotEditedFlagRoundTrip(t *testing.T) {
	plan := testPlan(8)
	// Move one cache without recomputing centers: only legal as "edited".
	plan.Assignments[0] = 1
	plan.MarkEdited()
	ep := &Epoch{Seq: 2, Plan: plan, Checksum: plan.Checksum(), Updated: time.Now()}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SaveSnapshot(path, ep); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if !got.Plan.Edited() {
		t.Fatal("edited flag lost in round trip (restored plan would wrongly re-arm CentersAreMeans)")
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
// holds a valid file, a version-1 file, a torn file, a checksum mismatch
// and a file without landmarks.
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
