package protocol

import (
	"errors"
	"strings"
	"testing"

	"edgecachegroups/internal/topology"
	"edgecachegroups/internal/verify"
)

// caches returns n distinct cache indices starting at from.
func caches(from, n int) []topology.CacheIndex {
	out := make([]topology.CacheIndex, n)
	for i := range out {
		out[i] = topology.CacheIndex(from + i)
	}
	return out
}

// validRun is the accounting of a run over 10 caches: 8 assigned, 2
// unresponsive, 1 assignment unacknowledged.
func validRun() (int, *Result) {
	return 10, &Result{
		Members:            caches(0, 8),
		Unresponsive:       caches(8, 2),
		UnackedAssignments: caches(0, 1),
		MessagesSent:       40,
		Retries:            5,
		DuplicateReplies:   2,
		TimedOutWaits:      3,
	}
}

func TestProtocolChecks(t *testing.T) {
	if err := verifyAccounting(validRun()); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(n *int, r *Result)
		want   string
	}{
		{"no caches", func(n *int, _ *Result) { *n = 0 }, "NumCaches"},
		{"conservation", func(_ *int, r *Result) { r.Unresponsive = caches(7, 3) }, "conservation"},
		{"unacked exceeds assigned", func(_ *int, r *Result) { r.UnackedAssignments = caches(0, 9) }, "unacked"},
		{"negative counters", func(_ *int, r *Result) { r.Retries = -1 }, "negative traffic"},
		{"sent below floor", func(_ *int, r *Result) { r.MessagesSent = 17 }, "floor"},
		{"retries exceed sent", func(_ *int, r *Result) { r.Retries = 41 }, "Retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, r := validRun()
			tc.mutate(&n, r)
			err := verifyAccounting(n, r)
			if err == nil {
				t.Fatalf("violation accepted: n=%d %+v", n, r)
			}
			var ve *verify.Error
			if !errors.As(err, &ve) || ve.Stage != "protocol" {
				t.Fatalf("error is not a protocol-stage *verify.Error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestProtocolFullyUnresponsiveRun(t *testing.T) {
	// A run where nobody answered still conserves: 0 assigned, n
	// unresponsive — but the coordinator must have tried.
	r := &Result{
		Unresponsive:  caches(0, 5),
		MessagesSent:  5,
		Retries:       5,
		TimedOutWaits: 1,
	}
	if err := verifyAccounting(5, r); err != nil {
		t.Fatalf("fully-unresponsive accounting rejected: %v", err)
	}
}
