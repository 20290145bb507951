package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/probe"
	"edgecachegroups/internal/topology"
)

// snapshotVersion guards the on-disk format. Version 2 added theta: a
// version-1 file would reload an SDSL plan as SL, so it is rejected.
const snapshotVersion = 2

// checksumHex renders a plan digest the way it appears on the wire and on
// disk: 16 zero-padded hex digits.
func checksumHex(sum uint64) string { return fmt.Sprintf("%016x", sum) }

// landmarkJSON serializes one probe endpoint (opaque struct → explicit
// origin/cache-index form).
type landmarkJSON struct {
	Origin bool `json:"origin,omitempty"`
	Cache  int  `json:"cache,omitempty"`
}

// planJSON is the serialized core.Plan.
type planJSON struct {
	Scheme         string           `json:"scheme"`
	Landmarks      []landmarkJSON   `json:"landmarks,omitempty"`
	Features       []cluster.Vector `json:"features,omitempty"`
	Points         []cluster.Vector `json:"points"`
	LandmarkCoords [][]float64      `json:"landmarkCoords,omitempty"`
	ServerDist     []float64        `json:"serverDist,omitempty"`
	Assignments    []int            `json:"assignments"`
	Centers        []cluster.Vector `json:"centers"`
	Algorithm      int              `json:"algorithm,omitempty"`
	Theta          float64          `json:"theta,omitempty"`
	Iterations     int              `json:"iterations,omitempty"`
	Converged      bool             `json:"converged,omitempty"`
}

// snapshotFile is the on-disk envelope. Checksum is the plan's FNV-1a
// digest recorded at save time; LoadSnapshot recomputes it from the
// decoded plan and rejects the file on mismatch, so a torn or hand-edited
// snapshot can never boot a corrupt plan.
type snapshotFile struct {
	Version   int      `json:"version"`
	SavedUnix int64    `json:"savedUnix"`
	Epoch     uint64   `json:"epoch"`
	Checksum  string   `json:"planChecksum"`
	Plan      planJSON `json:"plan"`
}

// SaveSnapshot writes the epoch's plan crash-safely: marshal to a
// temporary file in the target directory, fsync it, rename over the
// target, then fsync the directory. A crash at any point leaves either
// the previous snapshot or the new one, never a torn file.
func SaveSnapshot(path string, ep *Epoch) error {
	if ep == nil || ep.Plan == nil {
		return fmt.Errorf("serve: nil epoch")
	}
	p := ep.Plan
	lms := make([]landmarkJSON, len(p.Landmarks))
	for i, lm := range p.Landmarks {
		if lm.IsOrigin() {
			lms[i] = landmarkJSON{Origin: true}
		} else {
			lms[i] = landmarkJSON{Cache: int(lm.CacheIndex())}
		}
	}
	snap := snapshotFile{
		Version:   snapshotVersion,
		SavedUnix: time.Now().Unix(),
		Epoch:     ep.Seq,
		Checksum:  checksumHex(ep.Checksum),
		Plan: planJSON{
			Scheme:         p.Scheme,
			Landmarks:      lms,
			Features:       p.Features,
			Points:         p.Points,
			LandmarkCoords: p.LandmarkCoords,
			ServerDist:     p.ServerDist,
			Assignments:    p.Assignments,
			Centers:        p.Centers,
			Algorithm:      int(p.Algorithm),
			Theta:          p.Theta,
			Iterations:     p.Iterations,
			Converged:      p.Converged,
		},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: marshal snapshot: %w", err)
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: create snapshot tmp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("serve: publish snapshot: %w", err)
	}
	// Durable rename: fsync the directory (best-effort on platforms that
	// reject directory fsync).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() //ecglint:allow errdrop directory fsync is best-effort by design; some platforms reject it (covers the Close below)
		_ = d.Close()
	}
	return nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, rebuilds the
// plan, verifies its structural invariants and that an engine can serve
// it, and checks the recorded checksum against the rebuilt plan's digest.
// The returned epoch carries the persisted sequence number so a restarted
// daemon resumes counting from where it stopped.
func LoadSnapshot(path string) (*Epoch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: decode snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	pj := snap.Plan
	lms := make([]probe.Endpoint, len(pj.Landmarks))
	for i, lm := range pj.Landmarks {
		if lm.Origin {
			lms[i] = probe.Origin()
		} else {
			lms[i] = probe.Cache(topology.CacheIndex(lm.Cache))
		}
	}
	plan := &core.Plan{
		Scheme:         pj.Scheme,
		Landmarks:      lms,
		Features:       pj.Features,
		Points:         pj.Points,
		LandmarkCoords: pj.LandmarkCoords,
		ServerDist:     pj.ServerDist,
		Assignments:    pj.Assignments,
		Centers:        pj.Centers,
		Algorithm:      core.Algorithm(pj.Algorithm),
		Theta:          pj.Theta,
		Iterations:     pj.Iterations,
		Converged:      pj.Converged,
	}
	if err := plan.Verify(nil); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s holds an invalid plan: %w", path, err)
	}
	if err := checkServable(plan); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s holds an unservable plan: %w", path, err)
	}
	sum := plan.Checksum()
	if got := checksumHex(sum); got != snap.Checksum {
		return nil, fmt.Errorf("serve: snapshot %s checksum mismatch: file records %s, plan digests to %s", path, snap.Checksum, got)
	}
	return &Epoch{
		Seq:      snap.Epoch,
		Plan:     plan,
		Checksum: sum,
		Updated:  time.Unix(snap.SavedUnix, 0),
	}, nil
}
