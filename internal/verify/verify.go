// Package verify holds what the pipeline's invariant checks share. The
// paper's headline claims (the U-shaped latency-vs-K curve, SDSL beating
// SL) are only reproducible if the clustering, probing and simulation
// layers are internally consistent, so each layer audits its own output,
// in the package that owns the type it checks:
//
//   - core.Plan.Verify: every cache in exactly one of K non-empty groups,
//     consistent and finite dimensions, and centers that are the means of
//     their members;
//   - netsim.Report.Verify: the simulator's conservation laws;
//   - the protocol coordinator: the distributed run's accounting;
//   - serve.Engine.Ingest: every ingested RTT vector.
//
// Every check fails with an *Error naming its stage. Digest provides
// stable FNV-1a checksums so a (seed, config) pair replays bit-identically
// regardless of concurrency schedule.
//
// The package imports no other package of the module, so every layer can
// use it; edgecachegroups re-exports Error as ecg.VerifyError.
package verify

import "fmt"

// Error is returned by the invariant checks; Stage names the pipeline
// stage whose invariant failed.
type Error struct {
	Stage string
	Err   error
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("verify %s: %v", e.Stage, e.Err) }

// Unwrap supports errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Errorf returns an *Error for stage whose message is formatted as by
// fmt.Errorf.
func Errorf(stage, format string, args ...any) error {
	return &Error{Stage: stage, Err: fmt.Errorf(format, args...)}
}
