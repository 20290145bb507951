package verify

import (
	"errors"
	"strings"
	"testing"
)

func validProtocolData() ProtocolData {
	return ProtocolData{
		NumCaches:        10,
		Assigned:         8,
		Unresponsive:     2,
		Unacked:          1,
		MessagesSent:     40,
		Retries:          5,
		DuplicateReplies: 2,
		TimedOutWaits:    3,
	}
}

func TestProtocolChecks(t *testing.T) {
	if err := Protocol(validProtocolData()); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*ProtocolData)
		want   string
	}{
		{"no caches", func(d *ProtocolData) { d.NumCaches = 0 }, "NumCaches"},
		{"negative accounting", func(d *ProtocolData) { d.Unacked = -1 }, "negative accounting"},
		{"conservation", func(d *ProtocolData) { d.Unresponsive = 3 }, "conservation"},
		{"unacked exceeds assigned", func(d *ProtocolData) { d.Unacked = 9; d.Assigned = 8 }, "unacked"},
		{"negative counters", func(d *ProtocolData) { d.Retries = -1 }, "negative traffic"},
		{"sent below floor", func(d *ProtocolData) { d.MessagesSent = 17 }, "floor"},
		{"retries exceed sent", func(d *ProtocolData) { d.Retries = 41 }, "Retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validProtocolData()
			tc.mutate(&d)
			err := Protocol(d)
			if err == nil {
				t.Fatalf("violation accepted: %+v", d)
			}
			var ve *Error
			if !errors.As(err, &ve) || ve.Stage != "protocol" {
				t.Fatalf("error is not a protocol-stage *Error: %v", err)
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
	d := ProtocolData{
		NumCaches:     5,
		Unresponsive:  5,
		MessagesSent:  5,
		Retries:       5,
		TimedOutWaits: 1,
	}
	if err := Protocol(d); err != nil {
		t.Fatalf("fully-unresponsive accounting rejected: %v", err)
	}
}
