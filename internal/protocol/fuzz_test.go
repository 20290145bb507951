package protocol

import (
	"testing"

	"edgecachegroups/internal/simrand"
	"edgecachegroups/internal/topology"
)

// FuzzProtocolReplay checks the replay contract on the chaos network: a
// fault model, an upfront kill set, up to four KillAfter crashes, a
// partition and a seed fix the whole run. Two runs from the same inputs
// must end in the same Result (or the same typed error) and leave the
// same transport counters; a Result must pass assertValidResult; and after
// Close every copy the transport made must be delivered or dropped.
//
// probs packs the loss, duplication and delay probabilities (10 bits
// each, each taken mod 900 as thousandths, so below 0.9) and MaxDelay
// (bits 30-31 plus 1). killed and isolated are cache bitmasks (bit 24 of
// isolated cuts the coordinator off too). Each non-zero 16-bit lane of
// crashes schedules KillAfter(lane%24, (lane>>8)%6+1).
func FuzzProtocolReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, probs, killed, isolated uint32, crashes uint64, retries uint8, seed int64) {
		prob := func(shift uint) float64 { return float64((probs>>shift&0x3ff)%900) / 1000 }
		fc := FaultConfig{
			Loss:      prob(0),
			DupProb:   prob(10),
			DelayProb: prob(20),
			MaxDelay:  int(probs>>30) + 1,
		}
		cfg := chaosCfg()
		cfg.Retries = int(retries % 8)
		run := func() (*Result, TransportStats, error) {
			tr := faultStack(t, fc, seed)
			var cut []Addr
			for i := 0; i < chaosCaches; i++ {
				if killed&(1<<i) != 0 {
					tr.Kill(CacheAddr(topology.CacheIndex(i)))
				}
				if isolated&(1<<i) != 0 {
					cut = append(cut, CacheAddr(topology.CacheIndex(i)))
				}
			}
			if isolated&(1<<chaosCaches) != 0 {
				cut = append(cut, CoordinatorAddr())
			}
			tr.Partition(cut...)
			for lane := uint(0); lane < 64; lane += 16 {
				if b := uint16(crashes >> lane); b != 0 {
					tr.KillAfter(CacheAddr(topology.CacheIndex(b%chaosCaches)), int(b>>8)%6+1)
				}
			}
			coord, err := NewCoordinator(cfg, chaosCaches, tr, simrand.New(seed^0x5eed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Run()
			tr.Close()
			return res, tr.Stats(), err
		}
		resA, stA, errA := run()
		resB, stB, errB := run()
		if stA != stB {
			t.Fatalf("same inputs, different transport counters:\n%+v\n%+v", stA, stB)
		}
		if copies, got := stA.Sent+stA.Duplicated, accounted(stA); copies != got {
			t.Fatalf("copy accounting broken: sent+dup=%d, accounted=%d (%+v)", copies, got, stA)
		}
		if errA != nil || errB != nil {
			if errA == nil || errB == nil || errA.Error() != errB.Error() {
				t.Fatalf("same inputs, different outcomes:\n%v\n%v", errA, errB)
			}
			assertTypedFailure(t, errA)
			return
		}
		if diff := diffResults(resA, resB); diff != "" {
			t.Fatalf("same inputs, different results: %s", diff)
		}
		assertValidResult(t, resA, chaosCaches)
	})
}
