package protocol

import (
	"sync"
	"testing"
	"time"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// collect registers a handler on addr that records every message it is
// handed.
func collect(tr *ChanTransport, addr Addr) *[]Message {
	var got []Message
	tr.Register(addr, func(m Message) { got = append(got, m) })
	return &got
}

// accounted sums the copies a transport delivered or dropped; after Close
// it must equal Sent + Duplicated.
func accounted(st TransportStats) int64 {
	return st.Delivered + st.DroppedLoss + st.DroppedDead + st.DroppedPartition + st.DroppedClosed
}

// flush delivers everything queued on tr.
func flush(t *testing.T, tr *ChanTransport) {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{Loss: -0.1},
		{Loss: 1},
		{DupProb: 1.5},
		{DelayProb: -1},
		{MaxDelay: -1},
		{LinkLoss: map[Link]float64{{From: CoordinatorAddr(), To: CacheAddr(1)}: 1}},
	}
	for i, fc := range bad {
		if _, err := NewFaultTransport(fc, nil); err == nil {
			t.Fatalf("bad fault config %d accepted: %+v", i, fc)
		}
	}
	if _, err := NewFaultTransport(FaultConfig{Loss: 0.5, DupProb: 0.5, DelayProb: 0.5}, simrand.New(1)); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}
}

func TestTransportDuplication(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{DupProb: 0.5}, simrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	collect(tr, CacheAddr(0))
	const n = 40
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, tr)
	st := tr.Stats()
	if st.Sent != n {
		t.Fatalf("Sent = %d, want %d", st.Sent, n)
	}
	if st.Duplicated == 0 {
		t.Fatal("DupProb=0.5 duplicated nothing over 40 sends")
	}
	if st.Delivered != st.Sent+st.Duplicated {
		t.Fatalf("Delivered %d != Sent %d + Duplicated %d", st.Delivered, st.Sent, st.Duplicated)
	}
}

func TestTransportDelayReorders(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{DelayProb: 0.5, MaxDelay: 3}, simrand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box := collect(tr, CacheAddr(0))
	const n = 40
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, tr)
	got := *box
	st := tr.Stats()
	if st.Delayed == 0 {
		t.Fatal("DelayProb=0.5 delayed nothing over 40 sends")
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("delayed messages were never reordered")
	}
	// Nothing is lost: every copy is delivered or still held.
	if held := st.Sent - st.Delivered; held < 0 || int(st.Delivered) != len(got) {
		t.Fatalf("accounting: sent=%d delivered=%d received=%d", st.Sent, st.Delivered, len(got))
	}
}

// TestTransportFlushReleasesHeld: a delayed copy whose link sees no later
// send is released when the queue drains, so Flush strands nothing. One
// message goes to each of 20 addresses; the copies sent straight through
// arrive first, then the held ones in the order they were held.
func TestTransportFlushReleasesHeld(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{DelayProb: 0.7}, simrand.New(27))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got []Message
	const n = 20
	for i := 0; i < n; i++ {
		tr.Register(CacheAddr(topology.CacheIndex(i)), func(m Message) { got = append(got, m) })
	}
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(topology.CacheIndex(i)), Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, tr)
	st := tr.Stats()
	if st.Delayed < 2 || st.Delayed == n {
		t.Fatalf("Delayed = %d, want some but not all of %d copies held", st.Delayed, n)
	}
	if st.Delivered != n || len(got) != n {
		t.Fatalf("delivered %d (%d handed out) of %d: held copies stranded", st.Delivered, len(got), n)
	}
	// Two ascending runs: the straight-through copies, then the held ones.
	descents := 0
	for i := 1; i < n; i++ {
		if got[i].Seq < got[i-1].Seq {
			descents++
		}
	}
	if descents != 1 {
		t.Fatalf("delivery order %v is not straight-through copies then held copies in hold order", seqs(got))
	}
}

func seqs(msgs []Message) []uint64 {
	out := make([]uint64, len(msgs))
	for i, m := range msgs {
		out[i] = m.Seq
	}
	return out
}

func TestTransportPerLinkLossOverride(t *testing.T) {
	flaky := Link{From: CoordinatorAddr(), To: CacheAddr(0)}
	tr, err := NewFaultTransport(FaultConfig{LinkLoss: map[Link]float64{flaky: 0.9}}, simrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box0 := collect(tr, CacheAddr(0))
	box1 := collect(tr, CacheAddr(1))
	for i := 0; i < 30; i++ {
		_ = tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: uint64(i)})
		_ = tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(1), Seq: uint64(i)})
	}
	flush(t, tr)
	onFlaky, onClean := len(*box0), len(*box1)
	if onClean != 30 {
		t.Fatalf("clean link delivered %d/30", onClean)
	}
	if onFlaky >= 15 {
		t.Fatalf("90%%-loss link delivered %d/30", onFlaky)
	}
	if st := tr.Stats(); st.DroppedLoss != int64(30-onFlaky) {
		t.Fatalf("DroppedLoss = %d, want %d", st.DroppedLoss, 30-onFlaky)
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box0 := collect(tr, CacheAddr(0))
	box1 := collect(tr, CacheAddr(1))
	collect(tr, CoordinatorAddr())

	tr.Partition(CacheAddr(0), CacheAddr(1))
	// Across the cut: dropped silently.
	if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0)}); err != nil {
		t.Fatal(err)
	}
	flush(t, tr)
	if len(*box0) != 0 {
		t.Fatalf("partitioned cache received %d messages", len(*box0))
	}
	// Within the isolated side: still flows.
	if err := tr.Send(Message{From: CacheAddr(0), To: CacheAddr(1)}); err != nil {
		t.Fatal(err)
	}
	flush(t, tr)
	if len(*box1) != 1 {
		t.Fatalf("intra-partition delivery failed: got %d messages", len(*box1))
	}
	if st := tr.Stats(); st.DroppedPartition != 1 {
		t.Fatalf("DroppedPartition = %d, want 1", st.DroppedPartition)
	}
	tr.Heal()
	if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0)}); err != nil {
		t.Fatal(err)
	}
	flush(t, tr)
	if len(*box0) != 1 {
		t.Fatalf("healed link delivery failed: got %d messages", len(*box0))
	}
}

func TestTransportKillAfterAndRestart(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	box := collect(tr, CacheAddr(0))
	tr.KillAfter(CacheAddr(0), 2)
	for i := 0; i < 5; i++ {
		if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, tr)
	if got := *box; len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("KillAfter(2) delivered %v", got)
	}
	if st := tr.Stats(); st.DroppedDead != 3 {
		t.Fatalf("DroppedDead = %d, want 3", st.DroppedDead)
	}
	tr.Restart(CacheAddr(0))
	*box = nil
	if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: 9}); err != nil {
		t.Fatal(err)
	}
	flush(t, tr)
	if got := *box; len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("restarted node got %v", got)
	}
	// KillAfter with n <= 0 crashes immediately.
	*box = nil
	tr.KillAfter(CacheAddr(0), 0)
	_ = tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0)})
	flush(t, tr)
	if len(*box) != 0 {
		t.Fatalf("immediately-killed node received %d messages", len(*box))
	}
}

// TestTransportStatsConservation hammers every fault stage at once and
// checks the copy-accounting identity: each sent message becomes exactly
// one copy (plus one per duplication), and every copy is delivered or
// attributed to exactly one drop counter once the transport closes.
func TestTransportStatsConservation(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{Loss: 0.2, DupProb: 0.3, DelayProb: 0.4, MaxDelay: 5}, simrand.New(24))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		collect(tr, CacheAddr(topology.CacheIndex(i)))
	}
	collect(tr, CoordinatorAddr())
	tr.Kill(CacheAddr(3))
	tr.Partition(CacheAddr(2))
	for i := 0; i < 50; i++ {
		for ci := 0; ci < 4; ci++ {
			_ = tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(topology.CacheIndex(ci)), Seq: uint64(i)})
		}
		if i%2 == 0 {
			flush(t, tr) // leave every other batch queued for Close
		}
	}
	tr.Close() // drops still-queued and still-held copies into DroppedClosed
	st := tr.Stats()
	if copies, got := st.Sent+st.Duplicated, accounted(st); copies != got {
		t.Fatalf("copy accounting broken: sent+dup=%d, accounted=%d (%+v)", copies, got, st)
	}
	if st.DroppedClosed == 0 || st.DroppedDead == 0 || st.DroppedPartition == 0 || st.DroppedLoss == 0 || st.Duplicated == 0 || st.Delayed == 0 {
		t.Fatalf("fault stages idle in conservation hammer: %+v", st)
	}
}

// TestTransportSameSeedSameFaults replays an identical send sequence over
// two same-seed transports and demands identical per-message fates — the
// per-link stream contract at the transport level.
func TestTransportSameSeedSameFaults(t *testing.T) {
	run := func() ([]Message, TransportStats) {
		tr, err := NewFaultTransport(FaultConfig{Loss: 0.25, DupProb: 0.25, DelayProb: 0.25, MaxDelay: 3}, simrand.New(25))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		box := collect(tr, CacheAddr(0))
		for i := 0; i < 60; i++ {
			_ = tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0), Seq: uint64(i)})
			flush(t, tr)
		}
		return *box, tr.Stats()
	}
	gotA, stA := run()
	gotB, stB := run()
	if stA != stB {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", stA, stB)
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("same seed delivered %d vs %d messages", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i].Seq != gotB[i].Seq {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, gotA[i].Seq, gotB[i].Seq)
		}
	}
}

// TestTransportLifecycleRace hammers Send and Flush against Kill, Restart,
// Partition, Heal, and Close from many goroutines under the race
// detector: the queue, the fault state and the counters must stay behind
// the transport mutex, and Close must not break in-flight Sends.
func TestTransportLifecycleRace(t *testing.T) {
	tr, err := NewFaultTransport(FaultConfig{Loss: 0.1, DupProb: 0.2, DelayProb: 0.2}, simrand.New(26))
	if err != nil {
		t.Fatal(err)
	}
	const nAddrs = 4
	for i := 0; i < nAddrs; i++ {
		tr.Register(CacheAddr(topology.CacheIndex(i)), func(Message) {})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One flusher delivers queued copies until the transport closes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tr.Flush() == nil {
		}
	}()
	// Senders spam all addresses, tolerating post-Close errors.
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				to := CacheAddr(topology.CacheIndex(i % nAddrs))
				if err := tr.Send(Message{From: CoordinatorAddr(), To: to, Seq: uint64(s*1_000_000 + i)}); err != nil && err != ErrTransportClosed {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}
	// Lifecycle chaos: crash/restart, partition/heal, scheduled kills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addr := CacheAddr(topology.CacheIndex(i % nAddrs))
			switch i % 5 {
			case 0:
				tr.Kill(addr)
			case 1:
				tr.Restart(addr)
			case 2:
				tr.Partition(addr)
			case 3:
				tr.Heal()
			case 4:
				tr.KillAfter(addr, 2)
				tr.Restart(addr)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	tr.Close() // must not panic against in-flight Sends
	close(stop)
	wg.Wait()
	if err := tr.Send(Message{From: CoordinatorAddr(), To: CacheAddr(0)}); err != ErrTransportClosed {
		t.Fatalf("send after close = %v, want ErrTransportClosed", err)
	}
}
