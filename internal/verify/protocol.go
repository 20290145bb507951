package verify

// ProtocolData is the flattened view of a distributed protocol run's
// accounting, decoupled from the protocol package (protocol calls into
// verify, not the other way around). The formed plan itself is checked
// by Plan.
type ProtocolData struct {
	// NumCaches is the network size the run covered.
	NumCaches int
	// Assigned counts caches given a group; Unresponsive those that never
	// answered the feature round; Unacked those whose assignment was sent
	// but never acknowledged.
	Assigned     int
	Unresponsive int
	Unacked      int
	// MessagesSent, Retries, DuplicateReplies, and TimedOutWaits are the
	// coordinator's traffic counters.
	MessagesSent     int64
	Retries          int64
	DuplicateReplies int64
	TimedOutWaits    int64
}

// Protocol checks the conservation invariants of a distributed run: every
// cache is accounted for exactly once (assigned or unresponsive),
// degradation counts stay within their bounds, and the traffic counters
// are consistent. It returns the first violated invariant as a *Error.
func Protocol(d ProtocolData) error {
	const stage = "protocol"
	if d.NumCaches < 1 {
		return fail(stage, "NumCaches = %d, want >= 1", d.NumCaches)
	}
	if d.Assigned < 0 || d.Unresponsive < 0 || d.Unacked < 0 {
		return fail(stage, "negative accounting: assigned=%d unresponsive=%d unacked=%d",
			d.Assigned, d.Unresponsive, d.Unacked)
	}
	if d.Assigned+d.Unresponsive != d.NumCaches {
		return fail(stage, "cache conservation violated: assigned %d + unresponsive %d != %d caches",
			d.Assigned, d.Unresponsive, d.NumCaches)
	}
	if d.Unacked > d.Assigned {
		return fail(stage, "unacked %d exceeds assigned %d", d.Unacked, d.Assigned)
	}
	if d.MessagesSent < 0 || d.Retries < 0 || d.DuplicateReplies < 0 || d.TimedOutWaits < 0 {
		return fail(stage, "negative traffic counters: sent=%d retries=%d dups=%d timeouts=%d",
			d.MessagesSent, d.Retries, d.DuplicateReplies, d.TimedOutWaits)
	}
	// Every cache got at least one feature request and every assigned cache
	// at least one assign message, so the send counter has a hard floor.
	if min := int64(d.NumCaches + d.Assigned); d.MessagesSent < min {
		return fail(stage, "MessagesSent %d below the %d-message floor (n=%d + assigned=%d)",
			d.MessagesSent, min, d.NumCaches, d.Assigned)
	}
	if d.Retries > d.MessagesSent {
		return fail(stage, "Retries %d exceeds MessagesSent %d", d.Retries, d.MessagesSent)
	}
	return nil
}
